//! Re-records the hot-path golden.
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --bless
//! ```
//!
//! Runs every [`ezflow_bench::golden::ENTRIES`] workload and writes
//! `crates/bench/golden/hotpath.json` from their digests — after an
//! intentional behaviour change, and never otherwise. The check against
//! the committed file is a test: `cargo test -p ezflow-bench --test
//! golden` (add `--release` for speed).

use std::process::ExitCode;

use ezflow_bench::golden::{document, ENTRIES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--bless"] {
        eprintln!(
            "usage: hotpath_bench --bless\n\
             (the golden is checked by `cargo test -p ezflow-bench --test golden`)"
        );
        return ExitCode::from(2);
    }
    let digests: Vec<(&str, String)> = ENTRIES.iter().map(|e| (e.label, (e.run)())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/hotpath.json");
    if let Err(e) = std::fs::write(path, document(&digests)) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("blessed {path}");
    ExitCode::SUCCESS
}
