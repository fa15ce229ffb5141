//! The repository benchmark's measuring program.
//!
//! `perfbench run --workload <build|read|ingest> --seed N --seconds S
//! --trace 0|1 --work DIR --out DIR [--param key=value ...]` runs one
//! workload and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! per-layer ones ([`PER_LAYER`]), from spans the benchmark records around
//! its calls into each layer. `perfbench build-child ...` is the fresh
//! process one build runs in (its peak RSS is the build's).
//!
//! The program is driven only through its public interfaces:
//! `build_rlz_chunked`, `RlzStore::open*`, `LiveStore`, `rlz_serve::serve`
//! and `Client`. `perfbench/run.py` builds this crate and passes the
//! workload parameters from `perfbench/spec.json`.

mod build;
mod corpus;
mod ingest;
mod load;
mod read;
mod replay;
mod stats;
mod trace;
mod wrap;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// End-to-end metrics: every workload reports each one, with the meaning
/// its workload gives it (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("bytes_per_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("recovery_s", "s"),
];

/// Per-layer metrics: every workload reports each one. Those a workload
/// does not exercise are listed in its module's `NOT_EXERCISED` and read 0
/// there; every other one must be measured.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("suffix.dict_index_s", "s"),
    ("rlz.factorize_s", "s"),
    ("rlz.encode_s", "s"),
    ("rlz.factors_per_kib", "count/KiB"),
    ("rlz.literal_share", "ratio"),
    ("rlz.decode_us", "us"),
    ("rlz.expand_us", "us"),
    ("rlz.self_us", "us"),
    ("codecs.crc32c_us", "us"),
    ("codecs.self_us", "us"),
    ("store.write_s", "s"),
    ("store.build.reader_wait_s", "s"),
    ("store.dict_bytes", "bytes"),
    ("store.payload_bytes", "bytes"),
    ("store.docmap_us", "us"),
    ("store.get_us.p50", "us"),
    ("store.get_us.p99", "us"),
    ("store.batch_us.p50", "us"),
    ("store.pread_us.p50", "us"),
    ("store.pread_bytes", "bytes"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.stage_sum_ratio", "ratio"),
    ("store.put_us.p50", "us"),
    ("store.put_us.p99", "us"),
    ("store.append_us.p50", "us"),
    ("store.delete_us.p50", "us"),
    ("store.put_us.tail_lo", "us"),
    ("store.put_us.tail_hi", "us"),
    ("store.seal_put_us", "us"),
    ("store.seals", "count"),
    ("store.wal_frames", "count"),
    ("store.shed_writes", "count"),
    ("store.segment_bytes_per_byte", "ratio"),
    ("store.recovery_replayed_frames", "count"),
    ("store.self_us", "us"),
    ("serve.get_server_p50_us", "us"),
    ("serve.get_server_p99_us", "us"),
    ("serve.mget_server_p50_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.queue_depth_peak", "count"),
    ("serve.shed_reads", "count"),
    ("serve.self_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// Command-line arguments of `run` and `build-child`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub out: PathBuf,
    pub params: HashMap<String, String>,
}

impl Args {
    /// A numeric workload parameter; a missing or malformed one is fatal,
    /// since `spec.json` is the single source of the workload's shape.
    pub fn num(&self, key: &str) -> f64 {
        let v = self
            .params
            .get(key)
            .unwrap_or_else(|| fail(&format!("missing --param {key}")));
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--param {key}={v} is not a number")))
    }

    pub fn usize(&self, key: &str) -> usize {
        self.num(key) as usize
    }

    /// A list parameter, comma-separated.
    pub fn list(&self, key: &str) -> Vec<f64> {
        let v = self
            .params
            .get(key)
            .unwrap_or_else(|| fail(&format!("missing --param {key}")));
        v.split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--param {key}: bad item {x}")))
            })
            .collect()
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON line: the workload's
    /// user-facing figures under their own names, with sample counts.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".perfbench_work"),
        out: PathBuf::from(".perfbench_out"),
        params: HashMap::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--seconds" => a.seconds = val().parse().unwrap_or_else(|_| fail("bad --seconds")),
            "--trace" => a.trace = val() == "1",
            "--work" => a.work = PathBuf::from(val()),
            "--out" => a.out = PathBuf::from(val()),
            "--param" => {
                let kv = val();
                let (k, v) = kv
                    .split_once('=')
                    .unwrap_or_else(|| fail(&format!("--param {kv}: want key=value")));
                a.params.insert(k.to_string(), v.to_string());
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    a
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        fail("usage: perfbench run|build-child [flags]")
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "build-child" => build::child(&args),
        "run" => {
            std::fs::create_dir_all(&args.work).unwrap_or_else(|e| fail(&format!("work dir: {e}")));
            std::fs::create_dir_all(&args.out).unwrap_or_else(|e| fail(&format!("out dir: {e}")));
            let report = match args.workload.as_str() {
                "build" => build::run(&args),
                "read" => read::run(&args),
                "ingest" => ingest::run(&args),
                w => fail(&format!("unknown workload {w:?}")),
            };
            emit(&args, report);
        }
        other => fail(&format!("unknown command {other}")),
    }
}

/// Prints the notes and the result line; exits nonzero when the run's
/// outputs were wrong. A metric the workload exercises but did not
/// measure — never set, not finite, or from zero samples (the helpers in
/// `stats` give NaN then) — fails the run without a result line.
fn emit(args: &Args, report: Report) {
    let (table, skip) = if args.trace {
        let skip = match args.workload.as_str() {
            "build" => build::NOT_EXERCISED,
            "read" => read::NOT_EXERCISED,
            _ => ingest::NOT_EXERCISED,
        };
        (PER_LAYER, skip)
    } else {
        (END_TO_END, &[][..])
    };
    for line in &report.notes {
        println!("# {line}");
    }
    let known = |k: &str| END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == k);
    if let Some(k) = report.metrics.keys().find(|k| !known(k)) {
        fail(&format!("metric {k} is not in the metric tables"));
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = if skip.contains(&name) {
            0.0
        } else {
            match report.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => fail(&format!("metric {name} = {v}: no samples or not finite")),
                None => fail(&format!("metric {name} was not measured")),
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !report.correct {
        std::process::exit(1);
    }
}
