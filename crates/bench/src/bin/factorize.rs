//! Build-path throughput benchmark: RLZ factorization MB/s with the indexed
//! single-search matcher vs the paper's plain matcher, across dictionary
//! sizes. Writes the machine-readable `BENCH_factorize.json` artifact, whose
//! indexed / plain ratio `check_artifacts` gates.
//!
//! `cargo run --release -p rlz-bench --bin factorize [-- --size-mb N]`

use rlz_bench::{gov2_collection, ScaledConfig};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ScaledConfig::from_args(&args);
    let gov2 = gov2_collection(&cfg);
    let report = rlz_bench::tables::factorize_table(
        "Factorization throughput — q-gram indexed vs plain matcher",
        &gov2,
        &cfg,
    );
    report
        .write(Path::new("BENCH_factorize.json"))
        .expect("write BENCH_factorize.json");
}
