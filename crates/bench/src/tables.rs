//! One function per table/figure of the paper's evaluation. Each prints the
//! same rows/columns the paper reports, at the harness's miniature scale.

use crate::{
    block_label, build_ascii_store, build_blocked_store, build_rlz_store,
    concurrent_docs_per_second, dict_label, measure_store_budgeted, print_row, ScaledConfig,
    WorkDir,
};
use rlz_core::{Dictionary, FactorStats, PairCoding, RlzCompressor, SampleStrategy};
use rlz_corpus::{access, Collection};
use rlz_store::{AsciiStore, BlockCodec, BlockedStore, DocStore, RlzStore};
use std::time::Duration;

/// Wall-clock budget per (store, access pattern) measurement.
const MEASURE_BUDGET: Duration = Duration::from_secs(3);

/// Table 1: the worked Refine example — verified programmatically and
/// printed in the paper's layout.
pub fn table1() {
    let d = b"cabbaabba";
    let dict = Dictionary::from_bytes(d.to_vec());
    println!("Table 1 — Refine over d = \"cabbaabba\", x = \"bbaancabb\"\n");
    println!("i   : 1 2 3 4 5 6 7 8 9");
    let chars: Vec<String> = d.iter().map(|&b| (b as char).to_string()).collect();
    println!("d[i]: {}", chars.join(" "));
    let sa = dict.suffix_array().as_slice();
    let printed: Vec<String> = sa.iter().map(|&s| (s + 1).to_string()).collect();
    println!(
        "SA  : {}  (1-based; the paper prints the inverse array)",
        printed.join(" ")
    );
    println!("\nsorted suffixes:");
    for (rank, &s) in sa.iter().enumerate() {
        println!(
            "  {:>2}  {}",
            rank + 1,
            String::from_utf8_lossy(&d[s as usize..])
        );
    }
    let rlz = RlzCompressor::new(dict, PairCoding::UV);
    let factors = rlz.factorize(b"bbaancabb");
    println!("\nfactorization of x (0-based positions):");
    for f in &factors {
        if f.is_literal() {
            println!("  ('{}', 0)", f.pos as u8 as char);
        } else {
            println!("  ({}, {})", f.pos, f.len);
        }
    }
    assert_eq!(
        rlz.decompress(&rlz.compress(b"bbaancabb")).unwrap(),
        b"bbaancabb"
    );
    println!("\nround-trip verified.");
}

/// Tables 2 and 3: average factor length and % unused dictionary bytes for
/// dictionary sizes × sample lengths (0.5/1/2/5 KB).
pub fn factor_stats_table(title: &str, collection: &Collection, cfg: &ScaledConfig) {
    println!("{title}");
    println!(
        "(paper: dict 2/1/0.5 GB on 426/256 GB; here the same fractions of {:.0} MiB)\n",
        collection.total_bytes() as f64 / (1 << 20) as f64
    );
    let widths = [10usize, 10, 10, 10];
    print_row(
        &[
            "Size".into(),
            "Samp.(KB)".into(),
            "Avg.Fact.".into(),
            "Unused(%)".into(),
        ],
        &widths,
    );
    for dict_size in cfg.dict_sizes() {
        for sample_kb in [0.5f64, 1.0, 2.0, 5.0] {
            let sample_len = (sample_kb * 1024.0) as usize;
            let dict = Dictionary::sample(
                &collection.data,
                dict_size,
                sample_len,
                SampleStrategy::Evenly,
            );
            let rlz = RlzCompressor::new(dict, PairCoding::UV);
            let mut stats = FactorStats::new(dict_size);
            for doc in collection.iter_docs() {
                stats.record(&rlz.factorize(doc));
            }
            print_row(
                &[
                    dict_label(dict_size),
                    format!("{sample_kb:.1}"),
                    format!("{:.2}", stats.avg_factor_len()),
                    format!("{:.2}", stats.unused_dict_percent()),
                ],
                &widths,
            );
        }
    }
    println!();
}

/// Figure 3: frequency histogram of factor length values for the smallest
/// dictionary fraction and sample periods 512 B – 10 KB, printed as
/// log-binned series.
pub fn fig3(collection: &Collection, cfg: &ScaledConfig) {
    println!("Figure 3 — factor-length histogram (log-binned counts)");
    let dict_size = *cfg.dict_sizes().last().expect("dict sizes");
    println!(
        "(dict {} = the paper's 0.5 GB fraction; series = sample period)\n",
        dict_label(dict_size)
    );
    let sample_lens = [512usize, 1024, 2048, 5120, 10240];
    let mut all_bins: Vec<Vec<(usize, usize, u64)>> = Vec::new();
    for &sample_len in &sample_lens {
        let dict = Dictionary::sample(
            &collection.data,
            dict_size,
            sample_len,
            SampleStrategy::Evenly,
        );
        let rlz = RlzCompressor::new(dict, PairCoding::UV);
        let mut stats = FactorStats::new(dict_size);
        for doc in collection.iter_docs() {
            stats.record(&rlz.factorize(doc));
        }
        println!(
            "  sample {:>5}B: {:5.1}% of lengths < 100, {:5.1}% < sample length",
            sample_len,
            stats.fraction_below(100) * 100.0,
            stats.fraction_below(sample_len) * 100.0
        );
        all_bins.push(stats.log_binned_histogram());
    }
    println!();
    let max_bins = all_bins.iter().map(Vec::len).max().unwrap_or(0);
    let mut header = vec!["len-bin".to_string()];
    header.extend(sample_lens.iter().map(|s| format!("{s}B")));
    let widths = vec![14usize, 9, 9, 9, 9, 9];
    print_row(&header, &widths);
    for b in 0..max_bins {
        let mut cells = Vec::with_capacity(sample_lens.len() + 1);
        let range = all_bins
            .iter()
            .find_map(|bins| bins.get(b).map(|&(lo, hi, _)| format!("{lo}-{hi}")))
            .unwrap_or_default();
        cells.push(range);
        for bins in &all_bins {
            cells.push(
                bins.get(b)
                    .map(|&(_, _, count)| count.to_string())
                    .unwrap_or_else(|| "0".into()),
            );
        }
        print_row(&cells, &widths);
    }
    println!();
}

/// Tables 4, 5 and 8: RLZ encoding % and retrieval rates for dictionary
/// sizes × pair codings.
pub fn rlz_retrieval_table(title: &str, collection: &Collection, cfg: &ScaledConfig) {
    println!("{title}\n");
    let widths = [10usize, 8, 9, 12, 11];
    print_row(
        &[
            "Size".into(),
            "Pos-Len".into(),
            "Enc.(%)".into(),
            "Sequential".into(),
            "Query Log".into(),
        ],
        &widths,
    );
    let work = WorkDir::new("rlz-tbl");
    for dict_size in cfg.dict_sizes() {
        for coding in PairCoding::PAPER_SET {
            let tag = format!("{}-{}", dict_size, coding.name());
            let (dir, pct) = build_rlz_store(&work, &tag, collection, dict_size, coding, cfg);
            let store = RlzStore::open(&dir).expect("open rlz");
            let rates = measure_store_budgeted(&store, cfg, MEASURE_BUDGET);
            print_row(
                &[
                    dict_label(dict_size),
                    coding.name(),
                    format!("{pct:.2}"),
                    format!("{:.0}", rates.sequential),
                    format!("{:.0}", rates.query_log),
                ],
                &widths,
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    println!();
}

/// Tables 6, 7 and 9: baseline ASCII + blocked zlib/lzma stores.
pub fn baseline_retrieval_table(title: &str, collection: &Collection, cfg: &ScaledConfig) {
    println!("{title}\n");
    let widths = [6usize, 10, 9, 12, 11];
    print_row(
        &[
            "Alg.".into(),
            "Block(MB)".into(),
            "Enc.(%)".into(),
            "Sequential".into(),
            "Query Log".into(),
        ],
        &widths,
    );
    let work = WorkDir::new("base-tbl");

    let ascii_dir = build_ascii_store(&work, "ascii", collection);
    let ascii = AsciiStore::open(&ascii_dir).expect("open ascii");
    let rates = measure_store_budgeted(&ascii, cfg, MEASURE_BUDGET);
    print_row(
        &[
            "ascii".into(),
            "-".into(),
            "100.00".into(),
            format!("{:.0}", rates.sequential),
            format!("{:.0}", rates.query_log),
        ],
        &widths,
    );
    drop(ascii);
    std::fs::remove_dir_all(&ascii_dir).ok();

    let codecs = [
        BlockCodec::Zlite(rlz_zlite::Level::Best),
        BlockCodec::Lzlite(rlz_lzlite::Level::Best),
    ];
    for codec in codecs {
        for &block in &cfg.block_sizes {
            let tag = format!("{}-{}", codec.name(), block);
            let (dir, pct) = build_blocked_store(&work, &tag, collection, codec, block, cfg);
            let store = BlockedStore::open(&dir).expect("open blocked");
            let rates = measure_store_budgeted(&store, cfg, MEASURE_BUDGET);
            print_row(
                &[
                    codec.name().into(),
                    block_label(block),
                    format!("{pct:.2}"),
                    format!("{:.0}", rates.sequential),
                    format!("{:.0}", rates.query_log),
                ],
                &widths,
            );
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    println!();
}

/// Thread counts reported by the concurrent-retrieval table.
pub const CONCURRENT_THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

/// Concurrent retrieval (extension beyond the paper, enabled by the
/// `&self` store architecture): query-log docs/second for every store
/// family as reader threads scale, one opened store shared by all readers.
/// The rightmost column repeats the single-thread sequential rate so the
/// numbers sit next to the existing tables' layout.
pub fn concurrent_retrieval_table(title: &str, collection: &Collection, cfg: &ScaledConfig) {
    println!("{title}");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "(query-log docs/s; one shared store handle, N reader threads; host \
         has {cores} core(s) — expect scaling only up to that)\n"
    );
    let mut header = vec!["Alg.".to_string(), "Enc.(%)".to_string()];
    header.extend(CONCURRENT_THREAD_STEPS.iter().map(|t| format!("{t}T")));
    header.push("1T seq".into());
    let widths = [12usize, 9, 11, 11, 11, 11, 11];
    print_row(&header, &widths);

    let work = WorkDir::new("conc-tbl");
    let n = collection.num_docs();
    let query_log = access::query_log(n, cfg.requests, 20, cfg.seed ^ 0xACCE55);
    let sequential = access::sequential(n, cfg.requests);

    let measure = |name: &str, pct: f64, store: &dyn DocStore| {
        let mut cells = vec![name.to_string(), format!("{pct:.2}")];
        for &threads in &CONCURRENT_THREAD_STEPS {
            let rate = concurrent_docs_per_second(store, &query_log, threads, MEASURE_BUDGET);
            cells.push(format!("{rate:.0}"));
        }
        let seq = crate::docs_per_second_budgeted(store, &sequential, MEASURE_BUDGET);
        cells.push(format!("{seq:.0}"));
        print_row(&cells, &widths);
    };

    let ascii_dir = build_ascii_store(&work, "ascii", collection);
    let ascii = AsciiStore::open(&ascii_dir).expect("open ascii");
    measure("ascii", 100.0, &ascii);
    drop(ascii);
    std::fs::remove_dir_all(&ascii_dir).ok();

    let (zl_dir, zl_pct) = build_blocked_store(
        &work,
        "zlib-conc",
        collection,
        BlockCodec::Zlite(rlz_zlite::Level::Default),
        100 * 1024,
        cfg,
    );
    let zl = BlockedStore::open(&zl_dir).expect("open blocked");
    measure("zlib 0.1MB", zl_pct, &zl);
    let mut zl_cached = zl.clone();
    zl_cached.set_block_cache_capacity(64);
    measure("zlib+cache", zl_pct, &zl_cached);
    drop((zl, zl_cached));
    std::fs::remove_dir_all(&zl_dir).ok();

    let dict_size = cfg.dict_sizes()[1];
    let (rlz_dir, rlz_pct) = build_rlz_store(
        &work,
        "rlz-conc",
        collection,
        dict_size,
        PairCoding::ZV,
        cfg,
    );
    let rlz = RlzStore::open(&rlz_dir).expect("open rlz");
    measure("rlz ZV", rlz_pct, &rlz);
    let resident = RlzStore::open_resident(&rlz_dir).expect("open rlz resident");
    measure("rlz ZV mem", rlz_pct, &resident);
    drop((rlz, resident));
    std::fs::remove_dir_all(&rlz_dir).ok();
    println!();
}

/// Factorization-throughput table (build path; extension beyond the
/// paper): MB/s and docs/s of RLZ factorization with the single
/// lcp-skipping search inside the q-gram [`rlz_suffix::PrefixIndex`]
/// interval vs the paper's plain `Refine` matcher, across dictionary sizes. Also spot-checks that both matchers
/// emit identical factorizations before timing anything.
///
/// Returns the machine-readable report (`BENCH_factorize.json`).
pub fn factorize_table(
    title: &str,
    collection: &Collection,
    cfg: &ScaledConfig,
) -> crate::report::Report {
    println!("{title}");
    println!(
        "(single-threaded; {} MiB corpus; q = {} unless noted; 'plain' = \
         Refine from the full SA interval every factor)\n",
        collection.total_bytes() >> 20,
        rlz_core::Dictionary::DEFAULT_INDEX_Q,
    );
    let widths = [10usize, 3, 9, 10, 10, 10, 9];
    print_row(
        &[
            "Dict".into(),
            "q".into(),
            "Matcher".into(),
            "MiB/s".into(),
            "docs/s".into(),
            "factors".into(),
            "speedup".into(),
        ],
        &widths,
    );
    let mut report = crate::report::Report::new("factorize");
    let docs: Vec<&[u8]> = collection.iter_docs().collect();
    for dict_size in cfg.dict_sizes() {
        let dict = Dictionary::sample(
            &collection.data,
            dict_size,
            cfg.sample_len,
            SampleStrategy::Evenly,
        );
        // Zero-behavioral-diff check on a slice of the corpus before any
        // timing: the fast path must not change a single factor.
        for doc in docs.iter().step_by((docs.len() / 32).max(1)) {
            let mut fast = Vec::new();
            let mut plain = Vec::new();
            rlz_core::factorize(&dict, doc, &mut fast);
            rlz_core::factorize_plain(&dict, doc, &mut plain);
            assert_eq!(fast, plain, "indexed factorization diverged");
        }
        let mut plain_rate = 0.0f64;
        for (matcher, plain) in [("plain", true), ("indexed", false)] {
            let m = factorize_rate(&dict, &docs, plain, MEASURE_BUDGET);
            let speedup = if plain {
                plain_rate = m.mb_per_s;
                "1.00x".to_string()
            } else {
                format!("{:.2}x", m.mb_per_s / plain_rate)
            };
            print_row(
                &[
                    dict_label(dict_size),
                    dict.index_q().to_string(),
                    matcher.into(),
                    format!("{:.1}", m.mb_per_s),
                    format!("{:.0}", m.docs_per_s),
                    m.factors.to_string(),
                    speedup,
                ],
                &widths,
            );
            report.push(
                crate::report::Row::new()
                    .str("corpus", "gov2-like")
                    .int("corpus_bytes", collection.total_bytes() as u64)
                    .int("dict_bytes", dict_size as u64)
                    .int("sample_len", cfg.sample_len as u64)
                    .int("q", dict.index_q() as u64)
                    .str("matcher", matcher)
                    .num("mb_per_s", m.mb_per_s)
                    .num("docs_per_s", m.docs_per_s)
                    .int("factors", m.factors),
            );
        }
    }
    println!();
    report
}

struct FactorizeRate {
    mb_per_s: f64,
    docs_per_s: f64,
    factors: u64,
}

/// Timed factorization sweep over `docs` (cycling until `budget` elapses).
fn factorize_rate(
    dict: &Dictionary,
    docs: &[&[u8]],
    plain: bool,
    budget: Duration,
) -> FactorizeRate {
    let mut out = Vec::new();
    let t = std::time::Instant::now();
    let mut bytes = 0u64;
    let mut served = 0u64;
    let mut factors = 0u64;
    'timed: while !docs.is_empty() {
        for doc in docs {
            out.clear();
            if plain {
                rlz_core::factorize_plain(dict, doc, &mut out);
            } else {
                rlz_core::factorize(dict, doc, &mut out);
            }
            bytes += doc.len() as u64;
            factors += out.len() as u64;
            served += 1;
            if served.is_multiple_of(16) && t.elapsed() >= budget {
                break 'timed;
            }
        }
        if t.elapsed() >= budget {
            break;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    FactorizeRate {
        mb_per_s: bytes as f64 / (1 << 20) as f64 / secs,
        docs_per_s: served as f64 / secs,
        factors,
    }
}

/// Batch-retrieval table (read path; extension beyond the paper):
/// docs/second for query-log batches served three ways — the naive
/// request-order fan-out, the seek-aware offset-ordered default, and (for
/// the blocked store) block-coalesced decoding — on cold file-backed
/// stores.
///
/// Returns the machine-readable report (`BENCH_batch.json`).
pub fn batch_table(
    title: &str,
    collection: &Collection,
    cfg: &ScaledConfig,
) -> crate::report::Report {
    println!("{title}");
    println!(
        "(file-backed stores, {} worker thread(s), batches of {} query-log \
         requests; results always return in request order)\n",
        cfg.threads, BATCH_SIZE
    );
    let widths = [12usize, 11, 9, 11, 10];
    print_row(
        &[
            "Store".into(),
            "Strategy".into(),
            "Enc.(%)".into(),
            "docs/s".into(),
            "MiB/s".into(),
        ],
        &widths,
    );
    let mut report = crate::report::Report::new("batch");
    let work = WorkDir::new("batch-tbl");
    let ids = access::query_log(
        collection.num_docs(),
        cfg.requests.max(BATCH_SIZE),
        20,
        cfg.seed ^ 0xBA7C4,
    );

    let mut run = |store_name: &str, pct: f64, store: &dyn DocStore, coalesced: bool| {
        let mut strategies: Vec<(&str, BatchFn)> = vec![
            ("unordered", |s, ids, t| {
                rlz_store::get_batch_unordered(s, ids, t)
            }),
            ("ordered", |s, ids, t| {
                rlz_store::get_batch_ordered(s, ids, t)
            }),
        ];
        if coalesced {
            // The store's own get_batch override: offset-ordered AND one
            // decode per touched block.
            strategies.push(("coalesced", |s, ids, t| s.get_batch(ids, t)));
        }
        for (strategy, f) in strategies {
            let m = batch_rate(store, &ids, cfg.threads, f, MEASURE_BUDGET);
            print_row(
                &[
                    store_name.into(),
                    strategy.into(),
                    format!("{pct:.2}"),
                    format!("{:.0}", m.docs_per_s),
                    format!("{:.1}", m.mb_per_s),
                ],
                &widths,
            );
            report.push(
                crate::report::Row::new()
                    .str("corpus", "gov2-like")
                    .int("corpus_bytes", collection.total_bytes() as u64)
                    .str("store", store_name)
                    .str("strategy", strategy)
                    .int("batch_size", BATCH_SIZE as u64)
                    .int("threads", cfg.threads as u64)
                    .num("docs_per_s", m.docs_per_s)
                    .num("mb_per_s", m.mb_per_s),
            );
        }
    };

    let ascii_dir = build_ascii_store(&work, "ascii", collection);
    let ascii = AsciiStore::open(&ascii_dir).expect("open ascii");
    run("ascii", 100.0, &ascii, false);
    drop(ascii);
    std::fs::remove_dir_all(&ascii_dir).ok();

    let (zl_dir, zl_pct) = build_blocked_store(
        &work,
        "zlib-batch",
        collection,
        BlockCodec::Zlite(rlz_zlite::Level::Default),
        100 * 1024,
        cfg,
    );
    let zl = BlockedStore::open(&zl_dir).expect("open blocked");
    run("zlib 0.1MB", zl_pct, &zl, true);
    drop(zl);
    std::fs::remove_dir_all(&zl_dir).ok();

    let dict_size = cfg.dict_sizes()[1];
    let (rlz_dir, rlz_pct) = build_rlz_store(
        &work,
        "rlz-batch",
        collection,
        dict_size,
        PairCoding::ZV,
        cfg,
    );
    let rlz = RlzStore::open(&rlz_dir).expect("open rlz");
    run("rlz ZV", rlz_pct, &rlz, false);
    drop(rlz);
    std::fs::remove_dir_all(&rlz_dir).ok();
    println!();
    report
}

/// Requests per `get_batch` call in [`batch_table`].
pub const BATCH_SIZE: usize = 256;

type BatchFn = fn(&dyn DocStore, &[u32], usize) -> Result<Vec<Vec<u8>>, rlz_store::StoreError>;

struct BatchRate {
    docs_per_s: f64,
    mb_per_s: f64,
}

/// Replays `ids` in batches of [`BATCH_SIZE`] through `f` until `budget`
/// elapses, cycling as needed.
fn batch_rate(
    store: &dyn DocStore,
    ids: &[u32],
    threads: usize,
    f: BatchFn,
    budget: Duration,
) -> BatchRate {
    let t = std::time::Instant::now();
    let mut served = 0u64;
    let mut bytes = 0u64;
    'timed: loop {
        for batch in ids.chunks(BATCH_SIZE) {
            let out = f(store, batch, threads).expect("batch retrieval failed during benchmark");
            served += out.len() as u64;
            bytes += out.iter().map(|d| d.len() as u64).sum::<u64>();
            if t.elapsed() >= budget {
                break 'timed;
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    BatchRate {
        docs_per_s: served as f64 / secs,
        mb_per_s: bytes as f64 / (1 << 20) as f64 / secs,
    }
}

/// Decode-throughput table (read path; extension beyond the paper):
/// docs/second and MiB/second of factor decoding + expansion for every
/// pair coding in the extended set (the paper's four plus the post-paper
/// `F`/`L` entropy codecs), comparing the two-step oracle
/// (`decode_document` + `expand`, allocating per document) against the
/// fused zero-allocation pipeline (`decode_and_expand_scratch` with one
/// reused [`rlz_core::DecodeScratch`]). Each coding row also carries its
/// encoding percentage (encoded streams + dictionary, relative to the raw
/// corpus) so the ratio-vs-speed tradeoff is visible in one table.
/// Verifies byte-identical output on a corpus sample before timing
/// anything.
///
/// Returns the machine-readable report (`BENCH_decode.json`).
pub fn decode_table(
    title: &str,
    collection: &Collection,
    cfg: &ScaledConfig,
) -> crate::report::Report {
    println!("{title}");
    let dict_size = cfg.dict_sizes()[1];
    println!(
        "(single-threaded; {} MiB corpus, dict {}; 'two-step' = decode_document \
         + expand oracle, 'fused' = zero-allocation decode_and_expand_scratch)\n",
        collection.total_bytes() >> 20,
        dict_label(dict_size),
    );
    let widths = [8usize, 10, 9, 12, 10, 9];
    print_row(
        &[
            "Pos-Len".into(),
            "Pipeline".into(),
            "Enc.(%)".into(),
            "docs/s".into(),
            "MiB/s".into(),
            "speedup".into(),
        ],
        &widths,
    );
    let mut report = crate::report::Report::new("decode");
    let dict = Dictionary::sample(
        &collection.data,
        dict_size,
        cfg.sample_len,
        SampleStrategy::Evenly,
    );
    // Factorize once; each coding re-codes the same parse.
    let parses: Vec<Vec<rlz_core::Factor>> = collection
        .iter_docs()
        .map(|doc| rlz_core::factorize_to_vec(&dict, doc))
        .collect();
    for coding in PairCoding::EXTENDED_SET {
        let encoded: Vec<Vec<u8>> = parses
            .iter()
            .map(|f| rlz_core::coding::encode_document(f, coding))
            .collect();
        let encoded_bytes: u64 = encoded.iter().map(|e| e.len() as u64).sum();
        let enc_pct =
            (encoded_bytes + dict_size as u64) as f64 * 100.0 / collection.total_bytes() as f64;
        // Byte-identical check on a corpus sample before any timing.
        let mut scratch = rlz_core::DecodeScratch::new();
        for enc in encoded.iter().step_by((encoded.len() / 32).max(1)) {
            let mut fused = Vec::new();
            rlz_core::decode_and_expand_scratch(
                enc,
                coding,
                dict.bytes(),
                &mut fused,
                &mut scratch,
            )
            .unwrap();
            let factors = rlz_core::coding::decode_document(enc, coding).unwrap();
            let mut oracle = Vec::new();
            rlz_core::expand(dict.bytes(), &factors, &mut oracle).unwrap();
            assert_eq!(fused, oracle, "fused decode diverged from the oracle");
        }
        let mut two_step_rate = 0.0f64;
        for (pipeline, fused) in [("two-step", false), ("fused", true)] {
            let m = decode_rate(&encoded, coding, dict.bytes(), fused, MEASURE_BUDGET);
            let speedup = if fused {
                format!("{:.2}x", m.docs_per_s / two_step_rate)
            } else {
                two_step_rate = m.docs_per_s;
                "1.00x".to_string()
            };
            print_row(
                &[
                    coding.name(),
                    pipeline.into(),
                    format!("{enc_pct:.2}"),
                    format!("{:.0}", m.docs_per_s),
                    format!("{:.1}", m.mb_per_s),
                    speedup,
                ],
                &widths,
            );
            report.push(
                crate::report::Row::new()
                    .str("corpus", "gov2-like")
                    .int("corpus_bytes", collection.total_bytes() as u64)
                    .int("dict_bytes", dict_size as u64)
                    .str("coding", &coding.name())
                    .str("pipeline", pipeline)
                    .num("enc_pct", enc_pct)
                    .num("docs_per_s", m.docs_per_s)
                    .num("mb_per_s", m.mb_per_s),
            );
        }
    }
    println!();
    report
}

/// Decode throughput of one timed sweep (see [`decode_rate`]).
pub struct DecodeRate {
    /// Documents decoded per second.
    pub docs_per_s: f64,
    /// Expanded output MiB per second.
    pub mb_per_s: f64,
}

/// Timed decode sweep over pre-encoded records (cycling until `budget`
/// elapses). `fused == false` runs the two-step oracle with its per-doc
/// allocations, exactly as `RlzStore::get_into` did before the fused
/// pipeline existed. Shared by [`decode_table`] and the `ablation_search`
/// binary so both report the same measurement.
pub fn decode_rate(
    encoded: &[Vec<u8>],
    coding: PairCoding,
    dict_bytes: &[u8],
    fused: bool,
    budget: Duration,
) -> DecodeRate {
    let mut out = Vec::new();
    let mut scratch = rlz_core::DecodeScratch::new();
    let t = std::time::Instant::now();
    let mut bytes = 0u64;
    let mut served = 0u64;
    'timed: while !encoded.is_empty() {
        for enc in encoded {
            out.clear();
            if fused {
                rlz_core::decode_and_expand_scratch(
                    enc,
                    coding,
                    dict_bytes,
                    &mut out,
                    &mut scratch,
                )
                .expect("decode failed during benchmark");
            } else {
                let factors =
                    rlz_core::coding::decode_document(enc, coding).expect("decode failed");
                rlz_core::expand(dict_bytes, &factors, &mut out).expect("expand failed");
            }
            bytes += out.len() as u64;
            served += 1;
            if served.is_multiple_of(64) && t.elapsed() >= budget {
                break 'timed;
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    DecodeRate {
        docs_per_s: served as f64 / secs,
        mb_per_s: bytes as f64 / (1 << 20) as f64 / secs,
    }
}

/// Table 10: ZZ encoding % with dictionaries built from collection prefixes
/// (100 % down to 1 %), the dynamic-update simulation of §3.6.
pub fn table10(collection: &Collection, cfg: &ScaledConfig) {
    println!(
        "Table 10 — dictionary from collection prefixes (ZZ pair codes, dict {})\n",
        dict_label(cfg.dict_sizes()[1])
    );
    let widths = [9usize, 11];
    print_row(&["Prefix %".into(), "Encoding %".into()], &widths);
    let dict_size = cfg.dict_sizes()[1]; // the paper's middle (1 GB) size
    for percent in [100u32, 90, 80, 70, 60, 50, 40, 30, 20, 10, 1] {
        let dict = Dictionary::sample(
            &collection.data,
            dict_size,
            cfg.sample_len,
            SampleStrategy::Prefix { percent },
        );
        let rlz = RlzCompressor::new(dict, PairCoding::ZZ);
        let enc: usize = crate::parallel_doc_sizes(&rlz, collection, cfg.threads);
        let pct = (enc + dict_size) as f64 * 100.0 / collection.total_bytes() as f64;
        print_row(&[format!("{percent}.0"), format!("{pct:.2}")], &widths);
    }
    println!();
}
