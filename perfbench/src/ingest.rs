//! `ingest`: writes beside reads on a served `LiveStore` with
//! `FsyncPolicy::Always` (an ack means the write is durable). One
//! closed-loop writer connection sends PUTs of GOV2-like documents mixed
//! with APPENDs and DELETEs; one open-loop reader connection sends Zipf
//! GETs over live ids. Afterwards the store is dropped without a seal,
//! reopened (timed: recovery) and every acked op is checked against a
//! shadow model kept by the benchmark.

use crate::load::{
    connect_pair, open_loop, windowed_quantile, windowed_rate, Kind, Phase, MAX_OUTSTANDING,
    PLACEMENT_DOCS, WINDOWS,
};
use crate::stats::{dir_bytes, mean, median, quantile, scrape_value, vmhwm_mib};
use crate::trace::{self, Span};
use crate::wrap::Traced;
use crate::{corpus, fail, replay, Args, Report};
use rlz_core::{PairCoding, RlzCompressor};
use rlz_corpus::Collection;
use rlz_serve::{serve, Client, ServeConfig, ServerHandle};
use rlz_store::{DocStore, FsyncPolicy, LiveConfig, LiveStore, StoreError, WriteStore};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CODING: PairCoding = PairCoding::ZV;
/// Ids divisible by this are the writer's to APPEND to and DELETE; every
/// other id keeps its PUT bytes for good, so the reader can check them.
const MUTABLE_EVERY: u32 = 8;
const NONE: u32 = u32::MAX;
/// Store set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Bytes one APPEND adds: a small update to an existing page.
const APPEND_BYTES: usize = 512;
/// Ids the reader's shadow table has room for beyond the base: far more
/// than any run acks (about a thousand PUTs per second).
const MAX_IDS: usize = 2_000_000;
/// Open rounds after the unclean stop; `recovery_s` is their median.
const REOPENS: usize = 9;
/// Pool bytes the traced run replays serially through factorize and
/// encode: enough documents for a steady per-byte cost.
const REPLAY_MIB: usize = 16;
/// Length of the measured phase, in run seconds: long enough for several
/// 8 MiB seal cycles at the PUT rate of a 2-vCPU machine, so the traced
/// half closes at least two whole cycles (`store.put_us.tail_*`).
const PHASE_SHARE: f64 = 1.5;
/// Span names of the write path, client and store side.
const WRITE_SPANS: &[&str] = &[
    "serve.put",
    "serve.append",
    "serve.delete",
    "store.put",
    "store.append",
    "store.delete",
];

/// Per-layer metrics this workload does not exercise: nothing is built,
/// no MGETs are sent, the live store is not opened through a payload
/// backend, and the cache is off. `codecs` work (the WAL's checksums, the
/// entropy coders) runs only inside the store calls here, which the
/// benchmark cannot split.
pub const NOT_EXERCISED: &[&str] = &[
    "suffix.dict_index_s",
    "rlz.decode_us",
    "rlz.expand_us",
    "codecs.crc32c_us",
    "codecs.self_us",
    "store.write_s",
    "store.build.reader_wait_s",
    "store.dict_bytes",
    "store.payload_bytes",
    "store.docmap_us",
    "store.batch_us.p50",
    "store.pread_us.p50",
    "store.pread_bytes",
    "store.cache_hit_ratio",
    "store.stage_sum_ratio",
    "serve.mget_server_p50_us",
];

/// What the benchmark knows each id holds.
#[derive(Debug, Clone)]
enum Shadow {
    Pool(u32),
    Bytes(Vec<u8>),
    Deleted,
}

/// State the writer shares with the reader: for every acked stable id, the
/// pool document it holds.
struct Shared {
    stable: Vec<AtomicU32>,
    acked: AtomicU32,
}

impl Shared {
    /// Records an acked PUT. The slot is written before `acked` is raised
    /// with `Release`; the reader loads `acked` with `Acquire`, so every
    /// id below it has its slot visible.
    fn note(&self, id: u32, pool_idx: u32) {
        if let Some(slot) = self.stable.get(id as usize) {
            if !id.is_multiple_of(MUTABLE_EVERY) {
                slot.store(pool_idx, Ordering::Relaxed);
            }
        }
        self.acked.fetch_max(id + 1, Ordering::Release);
    }
}

/// The writer's view: shadow of every id plus the mutable ids still live.
struct Writer {
    shadow: Vec<Shadow>,
    mutable_live: Vec<u32>,
    next_pool: usize,
    rng: u64,
}

impl Writer {
    fn rand(&mut self) -> u64 {
        // xorshift64*: deterministic from the workload seed.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn acked_put(&mut self, shared: &Shared, id: u32, pool_idx: u32) -> Result<(), String> {
        if id as usize != self.shadow.len() {
            return Err(format!("PUT acked id {id}, expected {}", self.shadow.len()));
        }
        self.shadow.push(Shadow::Pool(pool_idx));
        if id.is_multiple_of(MUTABLE_EVERY) {
            self.mutable_live.push(id);
        }
        shared.note(id, pool_idx);
        Ok(())
    }

    fn bytes_of(&self, pool: &Collection, id: u32) -> Option<Vec<u8>> {
        match &self.shadow[id as usize] {
            Shadow::Pool(p) => Some(pool.doc(*p as usize).to_vec()),
            Shadow::Bytes(b) => Some(b.clone()),
            Shadow::Deleted => None,
        }
    }
}

/// Latencies of the writer's acked ops in microseconds, and its op counts.
#[derive(Default)]
struct WriteLat {
    put: Vec<f64>,
    /// When each acked PUT completed, seconds from the phase's start.
    put_done_s: Vec<f64>,
    append: Vec<f64>,
    delete: Vec<f64>,
    /// Document bytes the acked PUTs and APPENDs had the store compress
    /// (an APPEND recompresses the whole grown document).
    compressed_bytes: u64,
    attempted: u64,
    failed: u64,
    busy: u64,
}

fn config(fsync: FsyncPolicy, a: &Args) -> LiveConfig {
    LiveConfig {
        fsync,
        seal_bytes: a.usize("seal_mib") as u64 * (1 << 20),
        ..LiveConfig::default()
    }
}

/// The measured fsync policy, from the `fsync` parameter: `always`, since
/// an acked write is one that is durable.
fn fsync(a: &Args) -> FsyncPolicy {
    match a.params.get("fsync").map(String::as_str) {
        Some("always") => FsyncPolicy::Always,
        other => fail(&format!("--param fsync={other:?}: want always")),
    }
}

/// Creates the live store in `dir`, preloads and seals the base, reopens
/// it with the measured fsync policy and serves it; the timed set-up.
fn setup(a: &Args, pool: &Collection, base: usize, dir: &Path) -> (LiveStore, ServerHandle) {
    let dict = corpus::dictionary(pool, a.num("dict_ppm"));
    {
        // The preload is not what is measured; it skips the syncs.
        let live = LiveStore::create(dir, dict, CODING, config(FsyncPolicy::Never, a))
            .unwrap_or_else(|e| fail(&format!("live create: {e}")));
        for i in 0..base {
            live.put(pool.doc(i))
                .unwrap_or_else(|e| fail(&format!("preload: {e}")));
        }
        live.seal()
            .unwrap_or_else(|e| fail(&format!("preload seal: {e}")));
    }
    let live = LiveStore::open(dir, config(fsync(a), a))
        .unwrap_or_else(|e| fail(&format!("live open: {e}")));
    let (store, writer): (Arc<dyn DocStore>, Arc<dyn WriteStore>) = if a.trace {
        (
            Arc::new(Traced(live.clone())),
            Arc::new(Traced(live.clone())),
        )
    } else {
        (Arc::new(live.clone()), Arc::new(live.clone()))
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let cfg = ServeConfig {
        threads: a.usize("threads"),
        cache_bytes: a.usize("cache_mib") << 20,
        writer: Some(writer),
        ..ServeConfig::default()
    };
    let server = serve(store, listener, cfg).unwrap_or_else(|e| fail(&format!("serve: {e}")));
    (live, server)
}

/// One closed-loop write op chosen from the mix; returns false when the
/// connection is unusable.
fn write_op(
    w: &mut Writer,
    c: &mut Client,
    pool: &Collection,
    shared: &Shared,
    a: &Args,
    lat: &mut WriteLat,
    put_only: bool,
) -> bool {
    let roll = (w.rand() % 10_000) as f64 / 10_000.0;
    let (p_append, p_delete) = (a.num("append_share"), a.num("delete_share"));
    lat.attempted += 1;
    let t0 = Instant::now();
    let kind = if put_only || w.mutable_live.is_empty() || roll >= p_append + p_delete {
        0
    } else if roll < p_append {
        1
    } else {
        2
    };
    let res: Result<(&'static str, u32), rlz_serve::ClientError> = match kind {
        0 => {
            let p = (w.next_pool % pool.num_docs()) as u32;
            w.next_pool += 1;
            let doc = pool.doc(p as usize);
            c.put(doc).map(|id| {
                if let Err(e) = w.acked_put(shared, id, p) {
                    eprintln!("perfbench: {e}");
                    lat.failed += 1;
                }
                lat.compressed_bytes += doc.len() as u64;
                ("serve.put", id)
            })
        }
        1 => {
            let k = (w.rand() % w.mutable_live.len() as u64) as usize;
            let id = w.mutable_live[k];
            let src = pool.doc((w.rand() % pool.num_docs() as u64) as usize);
            let tail = &src[..APPEND_BYTES.min(src.len())];
            c.append(id, tail).map(|()| {
                let mut b = w.bytes_of(pool, id).expect("live mutable id");
                b.extend_from_slice(tail);
                lat.compressed_bytes += b.len() as u64;
                w.shadow[id as usize] = Shadow::Bytes(b);
                ("serve.append", id)
            })
        }
        _ => {
            let k = (w.rand() % w.mutable_live.len() as u64) as usize;
            let id = w.mutable_live[k];
            c.delete(id).map(|()| {
                w.mutable_live.swap_remove(k);
                w.shadow[id as usize] = Shadow::Deleted;
                ("serve.delete", id)
            })
        }
    };
    let done = Instant::now();
    let us = done.duration_since(t0).as_secs_f64() * 1e6;
    match res {
        Ok((name, id)) => {
            trace::record(name, trace::ns_of(t0), trace::ns_of(done), &[id], 0);
            match kind {
                0 => lat.put.push(us),
                1 => lat.append.push(us),
                _ => lat.delete.push(us),
            }
            true
        }
        Err(e) => {
            lat.failed += 1;
            if e.is_busy() {
                lat.busy += 1;
                true
            } else {
                eprintln!("perfbench: write failed: {e}");
                false
            }
        }
    }
}

/// The writer (closed loop) and the reader (open loop) side by side.
#[allow(clippy::too_many_arguments)]
fn drive(
    a: &Args,
    w: &mut Writer,
    clients: &mut [Client; 2],
    pool: &Collection,
    shared: &Shared,
    reader_ids: &mut (Vec<u32>, usize),
    dur: Duration,
) -> (WriteLat, Phase) {
    let [wc, rc] = clients;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut lat = WriteLat::default();
            let start = Instant::now();
            while start.elapsed() < dur {
                let puts = lat.put.len();
                if !write_op(w, wc, pool, shared, a, &mut lat, false) {
                    break;
                }
                if lat.put.len() > puts {
                    lat.put_done_s.push(start.elapsed().as_secs_f64());
                }
            }
            lat
        });
        let reader = s.spawn(|| {
            let next = || {
                let (log, at) = &mut *reader_ids;
                let acked = shared
                    .acked
                    .load(Ordering::Acquire)
                    .clamp(1, shared.stable.len() as u32);
                let r = log[*at % log.len()];
                *at += 1;
                let mut id = r % acked;
                // Skip to a stable id; they are dense (7 in 8).
                while id.is_multiple_of(MUTABLE_EVERY)
                    || shared.stable[id as usize].load(Ordering::Relaxed) == NONE
                {
                    id = if id == 0 { 1 } else { id - 1 };
                }
                vec![id]
            };
            let check = |id: u32, b: &[u8]| match shared.stable[id as usize].load(Ordering::Relaxed)
            {
                NONE => false,
                p => pool.doc(p as usize) == b,
            };
            open_loop(
                rc,
                Kind::Get,
                a.num("reader_get_per_s"),
                MAX_OUTSTANDING,
                dur,
                next,
                check,
            )
        });
        (
            writer.join().expect("writer"),
            reader.join().expect("reader"),
        )
    })
}

pub fn run(a: &Args) -> Report {
    let pool = corpus::gov2(a.usize("pool_mib"), a.seed);
    let base_bytes = a.usize("base_mib") << 20;
    let mut base = 0;
    let mut acc = 0;
    while base < pool.num_docs() && acc < base_bytes {
        acc += pool.doc(base).len();
        base += 1;
    }
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = a.work.join(format!("ingest-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let (live, server) = setup(a, &pool, base, &dir);
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.shutdown();
            drop(live);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((live, server, dir));
        }
    }
    let (live, server, dir) = kept.expect("at least one set-up");
    let cap = base + MAX_IDS;
    let shared = Shared {
        stable: (0..cap).map(|_| AtomicU32::new(NONE)).collect(),
        acked: AtomicU32::new(0),
    };
    let mut w = Writer {
        shadow: Vec::new(),
        mutable_live: Vec::new(),
        next_pool: base,
        rng: a.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
    };
    for i in 0..base as u32 {
        w.acked_put(&shared, i, i).unwrap_or_else(|e| fail(&e));
    }
    let addr = server.addr();
    let busy: Vec<u32> = (0..PLACEMENT_DOCS.min(base) as u32).collect();
    let mut clients = connect_pair(addr, &busy);
    let mut reader_ids = (
        rlz_corpus::access::query_log(1 << 20, 1 << 16, 1, a.seed ^ 0x1A6E57),
        0usize,
    );

    let scrape = |c: &mut Client| {
        c.metrics()
            .unwrap_or_else(|e| fail(&format!("scrape: {e}")))
    };
    // A traced run splits the same time between an untraced and a traced
    // phase.
    let measured = a.seconds * PHASE_SHARE;
    let phase = Duration::from_secs_f64(if a.trace { measured / 2.0 } else { measured });
    let (wl, rd) = drive(
        a,
        &mut w,
        &mut clients,
        &pool,
        &shared,
        &mut reader_ids,
        phase,
    );
    // Acked PUTs per second, median over time windows: a stall of the
    // machine's disk or CPU spoils one window, not the figure.
    let put_per_s = windowed_rate(
        &[&Phase {
            done_s: wl.put_done_s.clone(),
            docs_per_req: 1,
            dur_s: phase.as_secs_f64(),
            ..Phase::default()
        }],
        WINDOWS,
    );
    let mut r = Report::default();
    let (mut attempted, mut failed) = (wl.attempted + rd.attempted, wl.failed + rd.failed);
    let pct = |v: &[f64], q: f64| quantile(&mut v.to_vec(), q);
    let put_p50 = pct(&wl.put, 0.5);

    if a.trace {
        trace::set_enabled(true);
        let before = scrape(&mut clients[1]);
        let stats0 = live.write_stats();
        let (tw, tr) = drive(
            a,
            &mut w,
            &mut clients,
            &pool,
            &shared,
            &mut reader_ids,
            phase,
        );
        let stats1 = live.write_stats();
        let after = scrape(&mut clients[1]);
        trace::set_enabled(false);
        attempted += tw.attempted + tr.attempted;
        failed += tw.failed + tr.failed;
        let traced_p50 = pct(&tw.put, 0.5);
        r.set("bench.trace_overhead", traced_p50 / put_p50 - 1.0);
        r.note(format!(
            "trace overhead: traced PUT p50 {traced_p50:.1} us vs untraced {put_p50:.1} us"
        ));
        r.set("store.seals", (stats1.seals - stats0.seals) as f64);
        r.set(
            "store.wal_frames",
            (stats1.wal_frames - stats0.wal_frames) as f64,
        );
        r.set(
            "store.shed_writes",
            scrape_value(&after, "rlz_shed_writes_total")
                - scrape_value(&before, "rlz_shed_writes_total"),
        );
        crate::read::server_metrics(&mut r, &before, &after, pct(&tr.lat_us, 0.5));
        r.set("bench.gen_late_p99_us", pct(&tr.late_us, 0.99));
        let mut spans = trace::take_all();
        trace::link_by_request(
            &mut spans,
            &["serve.put", "serve.append", "serve.delete", "serve.get"],
            &["store.put", "store.append", "store.delete", "store.get"],
        );
        write_layers(&mut r, &spans);
        // Serial replay of the writer's documents through factorize and
        // encode, the work the live store does under its writer lock.
        let comp = RlzCompressor::new(corpus::dictionary(&pool, a.num("dict_ppm")), CODING);
        trace::set_enabled(true);
        let docs = (base..).map(|i| pool.doc(i % pool.num_docs()));
        let rw = replay::writes(docs, &comp, REPLAY_MIB << 20, None);
        trace::set_enabled(false);
        r.set("rlz.factorize_s", rw.factorize_ns as f64 / 1e9);
        r.set("rlz.encode_s", rw.encode_ns as f64 / 1e9);
        r.set("rlz.factors_per_kib", rw.factors_per_kib());
        r.set("rlz.literal_share", rw.literal_share());
        // Self time per acked write, from the served write spans alone:
        // the replay's factorize + encode cost per byte, times the bytes
        // the traced writes had compressed, moves from `store` to `rlz`.
        // GETs are left out: their decode cannot be split here (the live
        // store's segments are not opened stage by stage), and `read`
        // measures it.
        let writes: Vec<Span> = spans
            .iter()
            .filter(|s| WRITE_SPANS.contains(&s.name))
            .copied()
            .collect();
        let mut by_layer = trace::self_time_by_layer(&writes);
        let rlz_s = rw.rlz_ns_per_byte() * tw.compressed_bytes as f64 / 1e9;
        trace::move_from_store(&mut by_layer, &[("rlz", rlz_s)]);
        let acked = writes.iter().filter(|s| s.layer() == "serve").count() as f64;
        for (layer, key) in [
            ("rlz", "rlz.self_us"),
            ("store", "store.self_us"),
            ("serve", "serve.self_us"),
        ] {
            r.set(key, by_layer[layer] * 1e6 / acked);
        }
        spans.extend(trace::take_all());
        trace::write_jsonl(&a.out.join("trace-ingest.jsonl"), &spans)
            .unwrap_or_else(|e| fail(&format!("writing spans: {e}")));
    }

    // Recovery: seal, then a fixed number of acked PUTs, so every reopen
    // replays the same WAL; then stop without a seal.
    live.seal().unwrap_or_else(|e| fail(&format!("seal: {e}")));
    let mut tail = WriteLat::default();
    for _ in 0..a.usize("recovery_puts") {
        if !write_op(&mut w, &mut clients[0], &pool, &shared, a, &mut tail, true) {
            break;
        }
    }
    attempted += tail.attempted;
    failed += tail.failed;
    drop(clients);
    server.shutdown();
    drop(live);
    let mut opens = Vec::new();
    let mut replayed = 0;
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        let s = LiveStore::open(&dir, config(fsync(a), a))
            .unwrap_or_else(|e| fail(&format!("recovery open: {e}")));
        opens.push(t.elapsed().as_secs_f64());
        replayed = s.recovery().replayed_frames;
        reopened = Some(s);
    }
    let store = reopened.expect("at least one reopen");
    let (checked, bad, live_raw) = verify(&store, &w, &pool);
    attempted += checked;
    failed += bad;
    // Space amplification of what is sealed: drain the replayed WAL first
    // so the figure does not swing with how much raw tail was left.
    store
        .seal()
        .unwrap_or_else(|e| fail(&format!("final seal: {e}")));
    let seg_ratio = dir_bytes(&dir) as f64 / live_raw.max(1) as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    r.attempted = attempted;
    r.failed = failed;
    r.correct = bad == 0 && failed == 0;
    let setup_s = median(&setups);
    let puts = wl.put.len();
    r.set("setup_s", setup_s);
    r.set("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64);
    r.set("work_per_s", put_per_s);
    let get_p50 = windowed_quantile(&rd, WINDOWS, 0.5);
    r.set("op_p50_us", get_p50);
    r.set("bytes_per_byte", seg_ratio);
    r.set("peak_rss_mib", vmhwm_mib());
    r.set("recovery_s", median(&opens));
    r.set("store.segment_bytes_per_byte", seg_ratio);
    r.set("store.recovery_replayed_frames", replayed as f64);
    r.note(format!(
        "workload ingest: {base} base docs preloaded and sealed, fsync {}, seal at {} MiB, cache {} MiB; writer closed loop, reader {:.0} GET/s open loop",
        a.params["fsync"],
        a.usize("seal_mib"),
        a.usize("cache_mib"),
        a.num("reader_get_per_s")
    ));
    r.note(format!(
        "setup_s = {setup_s:.4} s (median of {})",
        setups.len()
    ));
    r.note(format!(
        "put_p50_us = {put_p50:.1} us, put_p99_us = {:.1} us (n={puts})",
        pct(&wl.put, 0.99)
    ));
    r.note(format!(
        "put_per_s = {put_per_s:.1} 1/s (median over {WINDOWS} windows; {} appends, {} deletes beside)",
        wl.append.len(),
        wl.delete.len()
    ));
    r.note(format!(
        "get_p50_us = {get_p50:.1} us (median over windows), get_p99_us = {:.1} us (n={})",
        pct(&rd.lat_us, 0.99),
        rd.lat_us.len()
    ));
    r.note(format!(
        "recovery_s = {:.5} s (median of {} reopens, {replayed} WAL frames replayed)",
        median(&opens),
        opens.len()
    ));
    r.note(format!(
        "failed_share = {} ratio ({failed} of {attempted} ops; {} shed)",
        failed as f64 / attempted.max(1) as f64,
        wl.busy + rd.busy
    ));
    r
}

/// Every id the writer knows, read back from the recovered store: live
/// ids must return their shadow bytes, deleted ids must be out of range.
/// Returns (checked, wrong, raw bytes of live documents).
fn verify(store: &LiveStore, w: &Writer, pool: &Collection) -> (u64, u64, u64) {
    let (mut checked, mut bad, mut raw) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    if store.num_docs() != w.shadow.len() {
        eprintln!(
            "perfbench: recovered store has {} ids, shadow has {}",
            store.num_docs(),
            w.shadow.len()
        );
        bad += 1;
    }
    for (id, s) in w.shadow.iter().enumerate() {
        buf.clear();
        let res = store.get_into(id, &mut buf);
        checked += 1;
        let good = match s {
            Shadow::Pool(p) => res.is_ok() && buf == pool.doc(*p as usize),
            Shadow::Bytes(b) => res.is_ok() && &buf == b,
            Shadow::Deleted => matches!(res, Err(StoreError::DocOutOfRange(_))),
        };
        if good {
            raw += buf.len() as u64;
        } else {
            bad += 1;
        }
    }
    (checked, bad, raw)
}

/// Write-side figures from the traced phase's spans.
fn write_layers(r: &mut Report, spans: &[Span]) {
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let mut puts = durs("store.put");
    r.set("store.put_us.p50", quantile(&mut puts, 0.5));
    r.set("store.put_us.p99", quantile(&mut puts, 0.99));
    r.set(
        "store.append_us.p50",
        quantile(&mut durs("store.append"), 0.5),
    );
    r.set(
        "store.delete_us.p50",
        quantile(&mut durs("store.delete"), 0.5),
    );
    r.set("store.get_us.p50", quantile(&mut durs("store.get"), 0.5));
    r.set("store.get_us.p99", quantile(&mut durs("store.get"), 0.99));

    // PUTs grouped by seal cycle (the seal count before each PUT); only
    // cycles that a seal closed and that began inside the phase count.
    let put_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "store.put").collect();
    let sealing: Vec<f64> = put_spans
        .iter()
        .filter(|s| s.arg & 1 == 1)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    r.set("store.seal_put_us", mean(&sealing));
    let cycles: Vec<u64> = put_spans.iter().map(|s| s.arg >> 1).collect();
    let (first, last) = (cycles.first().copied(), cycles.last().copied());
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    if let (Some(first), Some(last)) = (first, last) {
        for c in first + 1..last {
            let cyc: Vec<f64> = put_spans
                .iter()
                .filter(|s| s.arg >> 1 == c)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect();
            let q = cyc.len() / 4;
            if q == 0 {
                continue;
            }
            lo.extend_from_slice(&cyc[..q]);
            hi.extend_from_slice(&cyc[cyc.len() - q..]);
        }
    }
    r.set("store.put_us.tail_lo", median(&lo));
    r.set("store.put_us.tail_hi", median(&hi));
}
