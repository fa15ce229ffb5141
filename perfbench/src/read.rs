//! `read`: retrieval over loopback, open loop. A store built at set-up
//! from a GOV2-like corpus is served with the hot-document cache on; one
//! connection sends single GETs, the other MGETs of one result page, both
//! on a fixed schedule with ids from the query-log model. Latencies are
//! taken at fixed reference rates and capacity with the MGET connection in
//! closed loop, in short windows spread over the run; a ladder of offered
//! rates finds the highest rate that meets both latency limits.

use crate::load::{connect_pair, open_loop, Kind, Phase, MAX_OUTSTANDING, PLACEMENT_DOCS};
use crate::stats::{dir_bytes, mean, median, quantile, scrape_value, vmhwm_mib, Buckets};
use crate::trace::{self, Span};
use crate::wrap::{Traced, TracedBackend};
use crate::{corpus, fail, replay, Args, Report};
use rlz_core::{PairCoding, RlzCompressor};
use rlz_corpus::Collection;
use rlz_serve::{serve, Client, ServeConfig, ServerHandle};
use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, FileBackend, RlzStore};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CODING: PairCoding = PairCoding::ZV;
/// Store set-ups per run; `setup_s` is their median (one build swings
/// with the page cache and the machine's other load).
const SETUPS: usize = 3;
/// Result pages in each connection's query-log id stream before it cycles:
/// long enough that a run never repeats the stream.
const LOG_PAGES: usize = 4096;
/// Untimed warm-up at the reference rates: fills the hot cache and lets
/// lazy set-up finish.
const WARM: Duration = Duration::from_secs(1);
/// Share of the run spent in measuring cycles (see [`cycles`]), half
/// before and half after the ladder.
const CYCLE_SHARE: f64 = 1.3;
/// One window of a measuring cycle: 2500 GETs or 125 MGETs at the
/// reference rates.
const WINDOW: Duration = Duration::from_millis(500);
/// Share of the run each ladder rung lasts.
const RUNG_SHARE: f64 = 0.05;
/// Share of a rung's offered documents sent as single GETs; the rest go
/// as MGET pages.
const GET_DOC_SHARE: f64 = 0.5;
/// The latency quantile the ladder's limits apply to. The median, not p99:
/// on a 2-vCPU VM a sleeping thread overshoots by 0.8 ms at p99, so a
/// 1 ms p99 limit failed even at the lowest rung.
const LIMIT_QUANTILE: f64 = 0.5;
/// A rung counts only if the generator kept up: this share of the offered
/// documents completed (the backlog did not grow).
const MIN_ACHIEVED: f64 = 0.97;
/// Store calls of the traced phase replayed stage by stage: enough for
/// steady per-stage means, a fraction of a second to replay.
const REPLAY_DOCS: usize = 20_000;

/// Per-layer metrics this workload does not exercise: nothing is built
/// while it is measured and nothing is written.
pub const NOT_EXERCISED: &[&str] = &[
    "suffix.dict_index_s",
    "rlz.factorize_s",
    "rlz.encode_s",
    "rlz.factors_per_kib",
    "rlz.literal_share",
    "store.write_s",
    "store.build.reader_wait_s",
    "store.put_us.p50",
    "store.put_us.p99",
    "store.append_us.p50",
    "store.delete_us.p50",
    "store.put_us.tail_lo",
    "store.put_us.tail_hi",
    "store.seal_put_us",
    "store.seals",
    "store.wal_frames",
    "store.shed_writes",
    "store.segment_bytes_per_byte",
    "store.recovery_replayed_frames",
];

/// One request id stream per connection: query-log pages, cycled.
struct Ids {
    log: Vec<u32>,
    at: usize,
}

impl Ids {
    fn next(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.push(self.log[self.at % self.log.len()]);
            self.at += 1;
        }
        out
    }
}

struct Served {
    server: ServerHandle,
    store: RlzStore,
}

/// Builds the store in `dir` from `col` and serves it; the timed set-up.
fn setup(a: &Args, col: &Collection, dir: &Path, traced: bool) -> Served {
    let comp = RlzCompressor::new(corpus::dictionary(col, a.num("dict_ppm")), CODING);
    let cfg = BuildConfig {
        threads: a.usize("threads"),
        ..BuildConfig::default()
    };
    build_rlz_chunked(dir, &comp, col.iter_docs().map(<[u8]>::to_vec), &cfg)
        .unwrap_or_else(|e| fail(&format!("read set-up build: {e}")));
    let store = if traced {
        let backend = FileBackend::open(&dir.join("payload.bin"))
            .unwrap_or_else(|e| fail(&format!("payload: {e}")));
        RlzStore::open_with_backend(dir, Arc::new(TracedBackend(backend)))
    } else {
        RlzStore::open(dir)
    }
    .unwrap_or_else(|e| fail(&format!("open: {e}")));
    let served: Arc<dyn DocStore> = if traced {
        Arc::new(Traced(store.clone()))
    } else {
        Arc::new(store.clone())
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let cfg = ServeConfig {
        threads: a.usize("threads"),
        cache_bytes: a.usize("cache_mib") << 20,
        ..ServeConfig::default()
    };
    let server = serve(served, listener, cfg).unwrap_or_else(|e| fail(&format!("serve: {e}")));
    Served { server, store }
}

/// Both connections at once: GETs at `rates.0`/s and MGETs at `rates.1`/s
/// for `dur`; a connection whose rate is 0 stays idle.
fn drive(
    clients: &mut [Client; 2],
    ids: &mut [Ids; 2],
    col: &Collection,
    rates: (f64, f64),
    page: usize,
    outstanding: usize,
    dur: Duration,
) -> (Phase, Phase) {
    let check = |id: u32, b: &[u8]| (id as usize) < col.num_docs() && col.doc(id as usize) == b;
    let [c0, c1] = clients;
    let [i0, i1] = ids;
    std::thread::scope(|s| {
        let g = s.spawn(|| {
            (rates.0 > 0.0).then(|| {
                open_loop(
                    c0,
                    Kind::Get,
                    rates.0,
                    outstanding,
                    dur,
                    || i0.next(1),
                    check,
                )
            })
        });
        let m = s.spawn(|| {
            (rates.1 > 0.0).then(|| {
                open_loop(
                    c1,
                    Kind::MGet,
                    rates.1,
                    outstanding,
                    dur,
                    || i1.next(page),
                    check,
                )
            })
        });
        let g = g.join().expect("GET driver").unwrap_or_default();
        let m = m.join().expect("MGET driver").unwrap_or_default();
        (g, m)
    })
}

/// What the measuring cycles took, window by window.
#[derive(Default)]
struct Cycles {
    /// GETs alone at the reference rate.
    gets: Vec<Phase>,
    /// MGETs alone at the reference rate.
    mgets: Vec<Phase>,
    /// The MGET connection alone in closed loop (capacity). With both
    /// connections in closed loop, four threads raced on two CPUs and the
    /// rate jumped between levels (25k, 40k, 56k docs/s) that held for
    /// seconds: the figure measured where the scheduler put the threads.
    closed: Vec<Phase>,
    /// Open + scrub rounds, seconds.
    reopens: Vec<f64>,
    scrub_ok: bool,
}

impl Cycles {
    fn extend(&mut self, o: Cycles) {
        self.gets.extend(o.gets);
        self.mgets.extend(o.mgets);
        self.closed.extend(o.closed);
        self.reopens.extend(o.reopens);
        self.scrub_ok &= o.scrub_ok;
    }

    fn total(&self) -> Phase {
        merged(&[&self.gets[..], &self.mgets, &self.closed].concat())
    }

    /// Documents per second of each closed-loop window.
    fn capacity(&self) -> Vec<f64> {
        self.closed
            .iter()
            .map(|w| w.docs as f64 / w.wall_s)
            .collect()
    }
}

/// `n` measuring cycles. Each cycle takes one window of each figure in
/// turn: GETs alone at the reference rate, MGETs alone at the reference
/// rate, the MGET connection in closed loop, then one open + scrub of the
/// served store. Each is timed without the other connection's CPU bursts
/// beside it (two client and two server threads share two CPUs here).
/// Short turns spread every figure over the whole run, so a slow stretch
/// of a shared machine (seconds long on a 2-vCPU VM) falls on a few
/// windows of each figure rather than on all of one; each figure is the
/// median over its windows.
#[allow(clippy::too_many_arguments)]
fn cycles(
    clients: &mut [Client; 2],
    ids: &mut [Ids; 2],
    col: &Collection,
    dir: &Path,
    rates: (f64, f64),
    page: usize,
    n: usize,
) -> Cycles {
    let mut c = Cycles {
        scrub_ok: true,
        ..Cycles::default()
    };
    for _ in 0..n {
        let (get, _) = drive(
            clients,
            ids,
            col,
            (rates.0, 0.0),
            page,
            MAX_OUTSTANDING,
            WINDOW,
        );
        let (_, mget) = drive(
            clients,
            ids,
            col,
            (0.0, rates.1),
            page,
            MAX_OUTSTANDING,
            WINDOW,
        );
        let (_, closed) = drive(clients, ids, col, (0.0, f64::INFINITY), page, 1, WINDOW);
        let (reopen_s, clean) = crate::build::open_and_scrub(dir, 1);
        c.gets.push(get);
        c.mgets.push(mget);
        c.closed.push(closed);
        c.reopens.push(reopen_s);
        c.scrub_ok &= clean;
    }
    c
}

/// Each window's `q`-quantile of latency.
fn per_window(ws: &[Phase], q: f64) -> Vec<f64> {
    ws.iter()
        .map(|w| quantile(&mut w.lat_us.clone(), q))
        .collect()
}

/// All windows as one phase.
fn merged(ws: &[Phase]) -> Phase {
    let mut all = Phase::default();
    for w in ws {
        all.merge(w);
    }
    all
}

pub fn run(a: &Args) -> Report {
    let col = corpus::gov2(a.usize("corpus_mib"), a.seed);
    let page = a.usize("batch");
    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let dir = a.work.join(format!("read-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let s = setup(a, &col, &dir, a.trace);
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            served = Some((s, dir));
        }
    }
    let (Served { server, store }, dir) = served.expect("at least one set-up");
    let addr = server.addr();
    let n = col.num_docs();
    let busy: Vec<u32> = (0..PLACEMENT_DOCS.min(n) as u32).collect();
    let mut clients = connect_pair(addr, &busy);
    let log_len = LOG_PAGES * page;
    let mut ids = [
        Ids {
            log: rlz_corpus::access::query_log(n, log_len, page, a.seed ^ 0x6E7),
            at: 0,
        },
        Ids {
            log: rlz_corpus::access::query_log(n, log_len, page, a.seed ^ 0x3A6E7),
            at: 0,
        },
    ];

    // Warm-up: fill the cache and let lazy set-up finish before timing.
    let ref_rates = (a.num("ref_get_per_s"), a.num("ref_mget_per_s"));
    drive(
        &mut clients,
        &mut ids,
        &col,
        ref_rates,
        page,
        MAX_OUTSTANDING,
        WARM,
    );

    let scrape = |c: &mut Client| {
        c.metrics()
            .unwrap_or_else(|e| fail(&format!("scrape: {e}")))
    };
    let stat = |c: &mut Client| {
        c.server_stat()
            .unwrap_or_else(|e| fail(&format!("stat: {e}")))
    };
    // The measuring cycles run in two halves, one before and one after
    // the ladder, so that one slow stretch of the machine does not decide
    // a figure: each is the median over the windows of both halves.
    let cycle_s = 3.0 * WINDOW.as_secs_f64();
    let half = ((a.seconds * CYCLE_SHARE / 2.0 / cycle_s).round() as usize).max(1);
    let mut r = Report::default();
    let pct = |v: &[f64], q: f64| quantile(&mut v.to_vec(), q);
    let stat0 = stat(&mut clients[0]);
    let mut c = cycles(&mut clients, &mut ids, &col, &dir, ref_rates, page, half);
    let stat1 = stat(&mut clients[0]);
    let mut total = Phase::default();

    let mut traced_p50 = None;
    let mut max_docs_per_s = 0.0f64;
    let mut max_rate = 0.0f64;
    if a.trace {
        // The same cycles with spans on, between the two untraced halves;
        // the difference is the tracing overhead.
        trace::set_enabled(true);
        let (before_t, stat0_t) = (scrape(&mut clients[0]), stat(&mut clients[0]));
        let t = cycles(&mut clients, &mut ids, &col, &dir, ref_rates, page, half);
        let (after_t, stat1_t) = (scrape(&mut clients[0]), stat(&mut clients[0]));
        trace::set_enabled(false);
        total.merge(&t.total());
        traced_p50 = Some(median(&per_window(&t.gets, 0.5)));
        let hits = (stat1_t.cache_hits - stat0_t.cache_hits) as f64;
        let misses = (stat1_t.cache_misses - stat0_t.cache_misses) as f64;
        r.set("store.cache_hit_ratio", hits / (hits + misses).max(1.0));
        let (tg, tm) = (merged(&t.gets), merged(&t.mgets));
        server_metrics(&mut r, &before_t, &after_t, pct(&tg.lat_us, 0.5));
        let mut late = tg.late_us.clone();
        late.extend_from_slice(&tm.late_us);
        r.set("bench.gen_late_p99_us", quantile(&mut late, 0.99));
        let mut spans = trace::take_all();
        trace::link_by_request(
            &mut spans,
            &["serve.get", "serve.mget"],
            &["store.get", "store.batch"],
        );
        let ok = traced_layers(&mut r, &spans, &dir, &col, a);
        if !ok {
            total.failed += 1;
        }
    } else {
        let hits = (stat1.cache_hits - stat0.cache_hits) as f64;
        let misses = (stat1.cache_misses - stat0.cache_misses) as f64;
        r.note(format!(
            "cache hit ratio in the first cycles: {:.3}",
            hits / (hits + misses).max(1.0)
        ));
        r.note(format!(
            "generator lateness at the reference rate: GET p50 {:.1} us p99 {:.1} us, MGET p99 {:.1} us",
            pct(&merged(&c.gets).late_us, 0.5),
            pct(&merged(&c.gets).late_us, 0.99),
            pct(&merged(&c.mgets).late_us, 0.99)
        ));

        // Ladder of offered rates: the highest rate at which nothing
        // fails, GET and MGET latency at the limit quantile stay within
        // their limits, and the generator's backlog does not grow (the
        // rung, drained, completes at least `min_achieved` of what was
        // offered).
        let rung = Duration::from_secs_f64(a.seconds * RUNG_SHARE);
        let q = LIMIT_QUANTILE;
        for &rate in &a.list("ladder_docs_per_s") {
            let rates = (
                rate * GET_DOC_SHARE,
                rate * (1.0 - GET_DOC_SHARE) / page as f64,
            );
            let (g, m) = drive(
                &mut clients,
                &mut ids,
                &col,
                rates,
                page,
                MAX_OUTSTANDING,
                rung,
            );
            total.merge(&g);
            total.merge(&m);
            let achieved = (g.docs + m.docs) as f64 / g.wall_s.max(m.wall_s);
            let (gq, mq) = (pct(&g.lat_us, q), pct(&m.lat_us, q));
            let ok = g.failed + m.failed == 0
                && gq <= a.num("get_limit_us")
                && mq <= a.num("mget_limit_us")
                && achieved >= MIN_ACHIEVED * rate;
            r.note(format!(
                "ladder {rate:.0} docs/s: GET p{p} {gq:.0} us p99 {:.0} us, MGET p{p} {mq:.0} us p99 {:.0} us, achieved {achieved:.0} docs/s, {}",
                pct(&g.lat_us, 0.99),
                pct(&m.lat_us, 0.99),
                if ok { "meets limits" } else { "misses limits" },
                p = q * 100.0,
            ));
            if !ok {
                break;
            }
            max_rate = rate;
            max_docs_per_s = achieved;
        }
    }

    c.extend(cycles(
        &mut clients,
        &mut ids,
        &col,
        &dir,
        ref_rates,
        page,
        half,
    ));
    total.merge(&c.total());
    let (get_all, mget_all) = (merged(&c.gets), merged(&c.mgets));
    let windows = c.gets.len();
    let get_p50 = median(&per_window(&c.gets, 0.5));
    let mget_p50 = median(&per_window(&c.mgets, 0.5));
    let get_p99 = pct(&get_all.lat_us, 0.99);
    let mget_p99 = pct(&mget_all.lat_us, 0.99);
    let capacity = median(&c.capacity());
    let recovery_s = median(&c.reopens);
    if let Some(traced_p50) = traced_p50 {
        r.set("bench.trace_overhead", traced_p50 / get_p50 - 1.0);
        r.note(format!(
            "trace overhead: traced GET p50 {traced_p50:.1} us vs untraced {get_p50:.1} us (the cycles before and after)"
        ));
    }

    drop(clients);
    server.shutdown();
    let stored = dir_bytes(&dir) as f64 / col.total_bytes() as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    r.attempted = total.attempted;
    r.failed = total.failed;
    r.correct = total.failed == 0 && c.scrub_ok;
    let setup_s = median(&setups);
    r.set("setup_s", setup_s);
    r.set(
        "ok_share",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
    );
    r.set("work_per_s", capacity);
    r.set("op_p50_us", mget_p50);
    r.set("bytes_per_byte", stored);
    r.set("peak_rss_mib", vmhwm_mib());
    r.set("recovery_s", recovery_s);
    r.note(format!(
        "workload read: {:.1} MiB GOV2-like corpus, {n} docs, cache {} MiB, reference rates {:.0} GET/s + {:.0} MGET-{page}/s",
        col.total_bytes() as f64 / (1 << 20) as f64,
        a.usize("cache_mib"),
        ref_rates.0,
        ref_rates.1
    ));
    r.note(format!(
        "setup_s = {setup_s:.4} s (median of {})",
        setups.len()
    ));
    r.note(format!("mget_p50_us = {mget_p50:.1} us (median over {windows} windows; reported as op_p50_us), mget_p99_us = {mget_p99:.1} us (n={})", mget_all.lat_us.len()));
    r.note(format!("get_p50_us = {get_p50:.1} us (median over {windows} windows), get_p99_us = {get_p99:.1} us (n={})", get_all.lat_us.len()));
    r.note(format!("capacity = {capacity:.0} docs/s (the MGET connection in closed loop, median over {windows} windows; reported as work_per_s)"));
    r.note(format!(
        "open + scrub = {recovery_s:.4} s (median of {} rounds, one per cycle; reported as recovery_s)",
        c.reopens.len()
    ));
    if !a.trace {
        r.note(format!(
            "read_max_docs_per_s = {max_docs_per_s:.0} docs/s (ladder rung {max_rate:.0})"
        ));
    }
    r.note(format!(
        "failed_share = {} ratio ({} of {} requests; {} shed)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted,
        total.busy
    ));
    r
}

/// Server-side figures from a before/after pair of metric scrapes.
pub fn server_metrics(r: &mut Report, before: &str, after: &str, client_get_p50: f64) {
    let get = Buckets::parse(after, "get").minus(&Buckets::parse(before, "get"));
    let mget = Buckets::parse(after, "mget").minus(&Buckets::parse(before, "mget"));
    let server_p50 = get.quantile_us(0.5);
    r.set("serve.get_server_p50_us", server_p50);
    r.set("serve.get_server_p99_us", get.quantile_us(0.99));
    r.set("serve.mget_server_p50_us", mget.quantile_us(0.5));
    r.set("serve.wait_us", client_get_p50 - server_p50);
    r.set(
        "serve.queue_depth_peak",
        scrape_value(after, "rlz_queue_depth_peak"),
    );
    r.set(
        "serve.shed_reads",
        scrape_value(after, "rlz_shed_reads_total") - scrape_value(before, "rlz_shed_reads_total"),
    );
}

/// Per-layer figures from the traced phase's spans plus the read-path
/// replay; false if the replay read wrong bytes.
fn traced_layers(r: &mut Report, spans: &[Span], dir: &Path, col: &Collection, a: &Args) -> bool {
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let mut get_us = durs("store.get");
    let get_mean = mean(&get_us);
    r.set("store.get_us.p50", quantile(&mut get_us, 0.5));
    r.set("store.get_us.p99", quantile(&mut get_us, 0.99));
    r.set(
        "store.batch_us.p50",
        quantile(&mut durs("store.batch"), 0.5),
    );
    r.set(
        "store.pread_us.p50",
        quantile(&mut durs("store.pread"), 0.5),
    );
    let preads: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "store.pread")
        .map(|s| s.arg as f64)
        .collect();
    r.set("store.pread_bytes", mean(&preads));
    let store = RlzStore::open(dir).unwrap_or_else(|e| fail(&format!("open: {e}")));
    r.set("store.dict_bytes", store.dict_bytes() as f64);
    r.set("store.payload_bytes", store.stored_bytes() as f64);

    // Replay the ids that reached the store (cache misses), in order.
    let ids: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "store.get")
        .map(|s| s.req as u32)
        .take(REPLAY_DOCS)
        .collect();
    trace::set_enabled(true);
    let st = replay::read_path(dir, CODING, &ids, |id| col.doc(id as usize));
    trace::set_enabled(false);
    let replay_spans = trace::take_all();
    r.set("store.docmap_us", st.docmap_us);
    r.set("codecs.crc32c_us", st.crc_us);
    r.set("rlz.decode_us", st.decode_us);
    r.set("rlz.expand_us", st.expand_us);
    let ratio = st.sum_us() / get_mean.max(1e-9);
    r.set("store.stage_sum_ratio", ratio);
    r.note(format!(
        "read-path replay over {} docs: docmap {:.2} + pread {:.2} + crc32c {:.2} + decode {:.2} + expand {:.2} = {:.2} us vs store.get mean {get_mean:.2} us (ratio {ratio:.3}{})",
        st.docs, st.docmap_us, st.pread_us, st.crc_us, st.decode_us, st.expand_us, st.sum_us(),
        if (ratio - 1.0).abs() > 0.10 { "; FLAG: stages differ from store.get by more than 10%" } else { "" }
    ));

    // Self time per layer, per client request, from the served spans
    // alone: the replay's stage shares split the store calls' time among
    // `store`, `codecs` and `rlz`.
    let mut by_layer = trace::self_time_by_layer(spans);
    let store_s = by_layer.get("store").copied().unwrap_or(0.0);
    let moved: Vec<_> = st
        .shares()
        .into_iter()
        .filter(|&(layer, _)| layer != "store")
        .map(|(layer, share)| (layer, store_s * share))
        .collect();
    trace::move_from_store(&mut by_layer, &moved);
    let requests = spans.iter().filter(|s| s.layer() == "serve").count() as f64;
    for (layer, key) in [
        ("rlz", "rlz.self_us"),
        ("codecs", "codecs.self_us"),
        ("store", "store.self_us"),
        ("serve", "serve.self_us"),
    ] {
        r.set(key, by_layer[layer] * 1e6 / requests);
    }
    let mut all: Vec<Span> = spans.to_vec();
    all.extend(replay_spans);
    trace::write_jsonl(&a.out.join("trace-read.jsonl"), &all)
        .unwrap_or_else(|e| fail(&format!("writing spans: {e}")));
    st.mismatches == 0
}
