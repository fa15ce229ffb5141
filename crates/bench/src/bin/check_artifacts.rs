//! `check_artifacts` — schema validator and trend reporter for the
//! machine-readable `BENCH_*.json` benchmark artifacts.
//!
//! ```text
//! check_artifacts [--compare PREV_DIR] [FILES...]
//! ```
//!
//! With no files, validates every `BENCH_*.json` in the current directory.
//! Validation failures exit nonzero; CI runs this in place of any ad-hoc
//! python, and local runs use the exact same binary.
//!
//! `--compare PREV_DIR` additionally prints a before/after table against
//! artifacts of the same name in `PREV_DIR` (e.g. restored from the
//! previous CI run). The trend is informational only — shared-runner noise
//! makes hard thresholds useless — so comparison never affects the exit
//! code.
//!
//! Regressions fail through within-run ratios instead, which a slow runner
//! scales on both sides: `BENCH_factorize.json` fails when the indexed
//! matcher's MiB/s is below [`MIN_FACTORIZE_SPEEDUP`] times the plain
//! matcher's, measured on the same dictionary in the same run.

use rlz_bench::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Per-row numeric measures worth trending, by field name.
const MEASURES: [&str; 5] = ["mb_per_s", "docs_per_s", "p50_us", "p95_us", "p99_us"];

/// Lowest allowed indexed / plain factorize MiB/s on one dictionary: half
/// the median ratio over five runs of the CI smoke configuration
/// (`factorize --size-mb 2`: 15 ratios from 2.72 to 3.73, median 2.99, on
/// a 2-vCPU VM). Losing the indexed search altogether drops it to about 1.
const MIN_FACTORIZE_SPEEDUP: f64 = 1.5;

fn fail(file: &Path, what: &str) -> String {
    format!("{}: {what}", file.display())
}

fn load(file: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(file).map_err(|e| fail(file, &e.to_string()))?;
    json::parse(&text).map_err(|e| fail(file, &e))
}

/// Generic shape shared by every artifact: `bench` name, schema version 1,
/// and a non-empty `rows` array of objects. Returns (bench, rows).
fn check_shape<'v>(file: &Path, v: &'v Value) -> Result<(String, &'v [Value]), String> {
    let bench = v
        .get("bench")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(file, "missing string field \"bench\""))?
        .to_string();
    match v.get("schema_version").and_then(Value::as_f64) {
        Some(1.0) => {}
        other => {
            return Err(fail(
                file,
                &format!("schema_version must be 1, got {other:?}"),
            ))
        }
    }
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or_else(|| fail(file, "missing array field \"rows\""))?;
    if rows.is_empty() {
        return Err(fail(file, "no measurement rows"));
    }
    for (i, row) in rows.iter().enumerate() {
        if !matches!(row, Value::Obj(_)) {
            return Err(fail(file, &format!("row {i} is not an object")));
        }
    }
    Ok((bench, rows))
}

fn num_field(file: &Path, row: &Value, i: usize, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| fail(file, &format!("row {i}: missing numeric field {key:?}")))
}

fn nonneg(file: &Path, row: &Value, i: usize, key: &str) -> Result<f64, String> {
    let v = num_field(file, row, i, key)?;
    if v < 0.0 {
        return Err(fail(file, &format!("row {i}: {key} is negative ({v})")));
    }
    Ok(v)
}

fn str_set(rows: &[Value], key: &str) -> Vec<String> {
    let mut values: Vec<String> = rows
        .iter()
        .filter_map(|r| r.get(key).and_then(Value::as_str).map(str::to_string))
        .collect();
    values.sort();
    values.dedup();
    values
}

/// Bench-specific schema checks, keyed by the artifact's `bench` field.
fn check_bench(file: &Path, bench: &str, rows: &[Value]) -> Result<(), String> {
    match bench {
        "factorize" | "batch" | "decode" => {
            for (i, row) in rows.iter().enumerate() {
                nonneg(file, row, i, "corpus_bytes")?;
                nonneg(file, row, i, "mb_per_s")?;
            }
            if bench == "factorize" {
                check_factorize_speedup(file, rows)?;
            }
            if bench == "decode" {
                let pipelines = str_set(rows, "pipeline");
                if pipelines != ["fused", "two-step"] {
                    return Err(fail(file, &format!("pipelines {pipelines:?}")));
                }
                // The full matrix: paper-era codings plus the entropy-coded
                // (F*) and fast-literal (L*) families.
                let codings = str_set(rows, "coding");
                if codings != ["FF", "FV", "LL", "LV", "UV", "UZ", "ZV", "ZZ"] {
                    return Err(fail(file, &format!("codings {codings:?}")));
                }
                for (i, row) in rows.iter().enumerate() {
                    let docs_per_s = nonneg(file, row, i, "docs_per_s")?;
                    if docs_per_s == 0.0 {
                        return Err(fail(file, &format!("row {i}: docs_per_s is zero")));
                    }
                    // Encoded share of the corpus (encoded streams + dict):
                    // must be a ratio, not a byte count.
                    let enc_pct = nonneg(file, row, i, "enc_pct")?;
                    if enc_pct == 0.0 || enc_pct > 100.0 {
                        return Err(fail(
                            file,
                            &format!("row {i}: enc_pct out of range ({enc_pct})"),
                        ));
                    }
                }
            }
        }
        "serve" => {
            // A single row is a schema regression: the serving matrix
            // sweeps at least two configurations (backends, pipeline
            // depths, cache on/off), so one row means the sweep was lost.
            if rows.len() < 2 {
                return Err(fail(
                    file,
                    "serve artifact has a single row; the matrix needs at least two \
                     (sweep backends / pipeline depths / cache on+off, or --append)",
                ));
            }
            for (i, row) in rows.iter().enumerate() {
                for key in ["connections", "batch", "pipeline", "requests"] {
                    let v = nonneg(file, row, i, key)?;
                    if v < 1.0 {
                        return Err(fail(file, &format!("row {i}: {key} must be >= 1")));
                    }
                }
                nonneg(file, row, i, "payload_bytes")?;
                let docs_per_s = nonneg(file, row, i, "docs_per_s")?;
                if docs_per_s == 0.0 {
                    return Err(fail(file, &format!("row {i}: docs_per_s is zero")));
                }
                nonneg(file, row, i, "mb_per_s")?;
                let p50 = nonneg(file, row, i, "p50_us")?;
                let p95 = nonneg(file, row, i, "p95_us")?;
                let p99 = nonneg(file, row, i, "p99_us")?;
                if !(p50 <= p95 && p95 <= p99) {
                    return Err(fail(
                        file,
                        &format!("row {i}: percentiles not monotone ({p50} / {p95} / {p99})"),
                    ));
                }
                for key in ["workload", "dist"] {
                    row.get(key)
                        .and_then(Value::as_str)
                        .ok_or_else(|| fail(file, &format!("row {i}: missing string {key:?}")))?;
                }
                let cache = row
                    .get("cache")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(file, &format!("row {i}: missing string \"cache\"")))?;
                if !matches!(cache, "on" | "off") {
                    return Err(fail(file, &format!("row {i}: cache must be on/off")));
                }
                let backend = row
                    .get("backend")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(file, &format!("row {i}: missing string \"backend\"")))?;
                if !matches!(backend, "epoll" | "portable") {
                    return Err(fail(
                        file,
                        &format!("row {i}: backend must be epoll/portable, got {backend:?}"),
                    ));
                }
                // Optional while older artifacts linger; when present it is
                // the instrumentation-ablation axis and must be on/off.
                if let Some(metrics) = row.get("metrics").and_then(Value::as_str) {
                    if !matches!(metrics, "on" | "off") {
                        return Err(fail(file, &format!("row {i}: metrics must be on/off")));
                    }
                }
            }
        }
        "faults" => {
            // Three row groups, all required: a run that lost its scrub,
            // integrity-tax or overload section is a harness regression.
            let ops = str_set(rows, "op");
            if ops != ["overload", "scrub", "warm_get"] {
                return Err(fail(file, &format!("ops {ops:?}")));
            }
            for (i, row) in rows.iter().enumerate() {
                let op = row
                    .get("op")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(file, &format!("row {i}: missing string \"op\"")))?;
                match op {
                    "scrub" => {
                        nonneg(file, row, i, "payload_bytes")?;
                        if nonneg(file, row, i, "mb_per_s")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: scrub rate is zero")));
                        }
                        let integrity = row.get("integrity").and_then(Value::as_str);
                        if integrity != Some("crc32c") {
                            return Err(fail(
                                file,
                                &format!("row {i}: scrubbed stores must report crc32c"),
                            ));
                        }
                    }
                    "warm_get" => {
                        if nonneg(file, row, i, "docs_per_s")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: warm_get rate is zero")));
                        }
                        let integrity = row.get("integrity").and_then(Value::as_str);
                        if !matches!(integrity, Some("crc32c" | "none")) {
                            return Err(fail(
                                file,
                                &format!("row {i}: integrity must be crc32c/none"),
                            ));
                        }
                    }
                    "overload" => {
                        let shedding = row.get("shedding").and_then(Value::as_str);
                        let shed = nonneg(file, row, i, "shed")?;
                        match shedding {
                            Some("off") if shed != 0.0 => {
                                return Err(fail(
                                    file,
                                    &format!("row {i}: shed {shed} with shedding off"),
                                ))
                            }
                            Some("off" | "on") => {}
                            _ => {
                                return Err(fail(
                                    file,
                                    &format!("row {i}: shedding must be on/off"),
                                ))
                            }
                        }
                        let p50 = nonneg(file, row, i, "p50_us")?;
                        let p95 = nonneg(file, row, i, "p95_us")?;
                        let p99 = nonneg(file, row, i, "p99_us")?;
                        if !(p50 <= p95 && p95 <= p99) {
                            return Err(fail(
                                file,
                                &format!(
                                    "row {i}: percentiles not monotone ({p50} / {p95} / {p99})"
                                ),
                            ));
                        }
                    }
                    other => {
                        return Err(fail(file, &format!("row {i}: unknown op {other:?}")));
                    }
                }
            }
        }
        "ingest" => {
            // Three row groups, all required: acked-write rates per fsync
            // policy, recovery time against WAL length, and the read tail
            // with the write path idle vs under a concurrent writer.
            let ops = str_set(rows, "op");
            if ops != ["ingest", "mixed", "recovery"] {
                return Err(fail(file, &format!("ops {ops:?}")));
            }
            let fsyncs = str_set(rows, "fsync");
            if fsyncs != ["always", "interval", "never"] {
                return Err(fail(file, &format!("fsync policies {fsyncs:?}")));
            }
            let mut p99_baseline = None;
            let mut p99_ingest = None;
            for (i, row) in rows.iter().enumerate() {
                let op = row
                    .get("op")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(file, &format!("row {i}: missing string \"op\"")))?;
                match op {
                    "ingest" => {
                        if nonneg(file, row, i, "docs_per_s")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: ingest rate is zero")));
                        }
                        nonneg(file, row, i, "mb_per_s")?;
                    }
                    "recovery" => {
                        // The acceptance bar: recovery time is measured
                        // and tied to the WAL length it replayed.
                        if nonneg(file, row, i, "wal_frames")? == 0.0 {
                            return Err(fail(
                                file,
                                &format!("row {i}: recovery replayed an empty WAL"),
                            ));
                        }
                        nonneg(file, row, i, "wal_bytes")?;
                        if nonneg(file, row, i, "recover_ms")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: recover_ms is zero")));
                        }
                    }
                    "mixed" => {
                        let p50 = nonneg(file, row, i, "p50_us")?;
                        let p95 = nonneg(file, row, i, "p95_us")?;
                        let p99 = nonneg(file, row, i, "p99_us")?;
                        if !(p50 <= p95 && p95 <= p99) {
                            return Err(fail(
                                file,
                                &format!(
                                    "row {i}: percentiles not monotone ({p50} / {p95} / {p99})"
                                ),
                            ));
                        }
                        match row.get("phase").and_then(Value::as_str) {
                            Some("baseline") => p99_baseline = Some(p99),
                            Some("ingest") => p99_ingest = Some(p99),
                            _ => {
                                return Err(fail(
                                    file,
                                    &format!("row {i}: phase must be baseline/ingest"),
                                ))
                            }
                        }
                    }
                    other => {
                        return Err(fail(file, &format!("row {i}: unknown op {other:?}")));
                    }
                }
            }
            // Read tail under trickle ingest stays within 2x of idle
            // (same small absolute floor as the bench, for loopback
            // microsecond noise).
            match (p99_baseline, p99_ingest) {
                (Some(base), Some(under)) => {
                    let allowed = (2.0 * base).max(base + 500.0);
                    if under > allowed {
                        return Err(fail(
                            file,
                            &format!(
                                "read p99 under ingest ({under} us) exceeds 2x idle ({base} us)"
                            ),
                        ));
                    }
                }
                _ => return Err(fail(file, "mixed rows must cover baseline and ingest")),
            }
        }
        "build" => {
            // Three row groups, all required: the generator-only RSS
            // floor, the batch (materialized) oracle, and the chunked
            // streaming pipeline's thread sweep.
            let modes = str_set(rows, "mode");
            if modes != ["baseline", "chunked", "serial"] {
                return Err(fail(file, &format!("modes {modes:?}")));
            }
            let mut chunked_rows = 0usize;
            for (i, row) in rows.iter().enumerate() {
                let mode = row
                    .get("mode")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(file, &format!("row {i}: missing string \"mode\"")))?;
                if nonneg(file, row, i, "peak_rss_kb")? == 0.0 {
                    return Err(fail(file, &format!("row {i}: peak_rss_kb is zero")));
                }
                nonneg(file, row, i, "corpus_bytes")?;
                match mode {
                    "baseline" => {}
                    "serial" => {
                        if nonneg(file, row, i, "mb_per_s")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: serial rate is zero")));
                        }
                    }
                    "chunked" => {
                        chunked_rows += 1;
                        if nonneg(file, row, i, "mb_per_s")? == 0.0 {
                            return Err(fail(file, &format!("row {i}: chunked rate is zero")));
                        }
                        if nonneg(file, row, i, "threads")? < 1.0 {
                            return Err(fail(file, &format!("row {i}: threads must be >= 1")));
                        }
                        // The PR's acceptance bar, re-checked from the
                        // artifact: byte-identity with the serial oracle...
                        if row.get("identical").and_then(Value::as_str) != Some("yes") {
                            return Err(fail(
                                file,
                                &format!("row {i}: chunked store not byte-identical to serial"),
                            ));
                        }
                        // ...and the memory bound: peak RSS within the
                        // O(dict + constant x block) budget, on a corpus
                        // at least 4x the in-flight block budget (so the
                        // bound is demonstrated, not vacuous).
                        let rss = nonneg(file, row, i, "peak_rss_kb")?;
                        let budget = nonneg(file, row, i, "rss_budget_kb")?;
                        if rss > budget {
                            return Err(fail(
                                file,
                                &format!("row {i}: peak RSS {rss} KiB over budget {budget} KiB"),
                            ));
                        }
                        let corpus = nonneg(file, row, i, "corpus_bytes")?;
                        let block_budget = nonneg(file, row, i, "block_budget_kb")? * 1024.0;
                        if corpus < 4.0 * block_budget {
                            return Err(fail(
                                file,
                                &format!(
                                    "row {i}: corpus ({corpus} B) under 4x the block budget \
                                     ({block_budget} B) — RSS bound not demonstrated"
                                ),
                            ));
                        }
                    }
                    other => {
                        return Err(fail(file, &format!("row {i}: unknown mode {other:?}")));
                    }
                }
            }
            if chunked_rows == 0 {
                return Err(fail(file, "no chunked rows"));
            }
        }
        other => {
            // Unknown artifacts still had the generic shape checked; say so
            // rather than silently passing.
            println!("  note: no bench-specific schema for {other:?}, generic checks only");
        }
    }
    Ok(())
}

/// The factorize ratio gate: every dictionary has a `plain` and an
/// `indexed` row, and indexed MiB/s is at least [`MIN_FACTORIZE_SPEEDUP`]
/// times plain.
fn check_factorize_speedup(file: &Path, rows: &[Value]) -> Result<(), String> {
    let matchers = str_set(rows, "matcher");
    if matchers != ["indexed", "plain"] {
        return Err(fail(file, &format!("matchers {matchers:?}")));
    }
    let rate = |dict: f64, matcher: &str| {
        rows.iter()
            .find(|r| {
                r.get("dict_bytes").and_then(Value::as_f64) == Some(dict)
                    && r.get("matcher").and_then(Value::as_str) == Some(matcher)
            })
            .and_then(|r| r.get("mb_per_s").and_then(Value::as_f64))
    };
    for (i, row) in rows.iter().enumerate() {
        let dict = num_field(file, row, i, "dict_bytes")?;
        let (Some(indexed), Some(plain)) = (rate(dict, "indexed"), rate(dict, "plain")) else {
            return Err(fail(
                file,
                &format!("dictionary {dict} lacks a plain or indexed row"),
            ));
        };
        let ratio = indexed / plain;
        if ratio.is_nan() || ratio < MIN_FACTORIZE_SPEEDUP {
            return Err(fail(
                file,
                &format!(
                    "dictionary {dict}: indexed {indexed:.1} MiB/s is {ratio:.2}x plain \
                     {plain:.1} MiB/s, below the {MIN_FACTORIZE_SPEEDUP}x gate"
                ),
            ));
        }
    }
    Ok(())
}

fn validate(file: &Path) -> Result<(), String> {
    let v = load(file)?;
    let (bench, rows) = check_shape(file, &v)?;
    check_bench(file, &bench, rows)?;
    println!(
        "{} ok: bench {bench:?}, {} rows",
        file.display(),
        rows.len()
    );
    Ok(())
}

/// A row's identity: every field that is not a trended measure, rendered
/// `key=value` and joined. Rows match across runs when identities match.
fn row_identity(row: &Value) -> String {
    let Value::Obj(fields) = row else {
        return String::new();
    };
    fields
        .iter()
        .filter(|(k, _)| !MEASURES.contains(&k.as_str()))
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints the before/after trend for one artifact pair. Informational
/// only; never fails.
fn compare(file: &Path, prev_dir: &Path) {
    let name = file.file_name().map(Path::new).unwrap_or(file);
    let prev_file = prev_dir.join(name);
    if !prev_file.exists() {
        println!("  (no previous {} to compare against)", name.display());
        return;
    }
    let (Ok(curr), Ok(prev)) = (load(file), load(&prev_file)) else {
        println!("  (previous {} unreadable; skipping trend)", name.display());
        return;
    };
    let (Some(curr_rows), Some(prev_rows)) = (
        curr.get("rows").and_then(Value::as_arr),
        prev.get("rows").and_then(Value::as_arr),
    ) else {
        return;
    };
    println!("  trend vs previous run ({}):", name.display());
    let mut matched = 0usize;
    for row in curr_rows {
        let identity = row_identity(row);
        let Some(prev_row) = prev_rows.iter().find(|r| row_identity(r) == identity) else {
            continue;
        };
        for measure in MEASURES {
            let (Some(now), Some(before)) = (
                row.get(measure).and_then(Value::as_f64),
                prev_row.get(measure).and_then(Value::as_f64),
            ) else {
                continue;
            };
            if before == 0.0 {
                continue;
            }
            matched += 1;
            let delta = (now - before) / before * 100.0;
            let marker = if delta.abs() >= 10.0 {
                "  <-- note"
            } else {
                ""
            };
            println!("    {identity} {measure}: {before:.1} -> {now:.1} ({delta:+.1}%){marker}");
        }
    }
    if matched == 0 {
        println!("    (no matching rows between runs)");
    } else {
        println!(
            "    ({} measures compared; informational only — shared-runner noise \
             makes hard thresholds meaningless)",
            matched
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut compare_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--compare needs a directory");
                    return ExitCode::from(2);
                };
                compare_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                eprintln!("usage: check_artifacts [--compare PREV_DIR] [FILES...]");
                return ExitCode::from(2);
            }
            other => files.push(PathBuf::from(other)),
        }
        i += 1;
    }
    if files.is_empty() {
        // Default: every BENCH_*.json in the working directory.
        if let Ok(entries) = std::fs::read_dir(".") {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("BENCH_") && name.ends_with(".json") {
                    files.push(entry.path());
                }
            }
        }
        files.sort();
    }
    if files.is_empty() {
        eprintln!("check_artifacts: no BENCH_*.json artifacts found");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        if let Err(e) = validate(file) {
            eprintln!("check_artifacts: FAIL {e}");
            failed = true;
        }
        if let Some(dir) = &compare_dir {
            compare(file, dir);
        }
    }
    // A benchmark that silently stops emitting its artifact is a
    // regression the trend table cannot see (it only walks current
    // files) — warn loudly instead of passing in silence.
    if let Some(dir) = &compare_dir {
        let current: Vec<String> = files
            .iter()
            .filter_map(|f| f.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        if let Ok(entries) = std::fs::read_dir(dir) {
            let mut missing: Vec<String> = entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .filter(|n| !current.iter().any(|c| c == n))
                .collect();
            missing.sort();
            for name in missing {
                eprintln!(
                    "check_artifacts: WARNING: {name} existed in the previous run \
                     ({}) but is missing from this one — did its benchmark stop \
                     emitting it?",
                    dir.display()
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("check_artifacts: all {} artifact(s) valid", files.len());
        ExitCode::SUCCESS
    }
}
