//! Re-records the hot-path golden.
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --bless
//! ```
//!
//! Runs every [`ezflow_bench::golden::ENTRIES`] workload and writes
//! `crates/bench/golden/hotpath.json` from their digests — after an
//! intentional behaviour change, and never otherwise. Before writing, it
//! prints what the re-bless changes against the committed file: per
//! entry, every key whose value changed, appeared or vanished, then the
//! number of entries left untouched. The check against the committed
//! file is a test: `cargo test -p ezflow-bench --test golden` (add
//! `--release` for speed).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use ezflow_bench::golden::{document, flatten, ENTRIES};
use ezflow_sim::JsonValue;

/// `(dotted.path, compact leaf)` pairs of one digest, in document order.
fn leaves(v: &JsonValue) -> Vec<(String, String)> {
    let mut out = Vec::new();
    flatten(v, "", &mut out);
    out
}

/// What writing `digests` changes in the `committed` golden document.
fn report(committed: &str, digests: &[(&str, String)]) -> String {
    let committed = JsonValue::parse(committed).unwrap_or(JsonValue::Object(Vec::new()));
    let mut out = String::new();
    let mut untouched = 0;
    for (label, digest) in digests {
        let Some(was) = committed.get(label) else {
            writeln!(out, "{label}: new entry").unwrap();
            continue;
        };
        let was = leaves(was);
        let now = leaves(&JsonValue::parse(digest).expect("a digest is valid JSON"));
        let was_map: BTreeMap<&str, &str> = was.iter().map(|(k, v)| (&**k, &**v)).collect();
        let now_map: BTreeMap<&str, &str> = now.iter().map(|(k, v)| (&**k, &**v)).collect();
        let mut lines = Vec::new();
        for (key, value) in &now {
            match was_map.get(&**key) {
                Some(old) if old == value => {}
                Some(old) => lines.push(format!("  {key}: {old} -> {value}")),
                None => lines.push(format!("  {key}: appeared, {value}")),
            }
        }
        for (key, old) in &was {
            if !now_map.contains_key(&**key) {
                lines.push(format!("  {key}: vanished, was {old}"));
            }
        }
        if lines.is_empty() {
            untouched += 1;
        } else {
            writeln!(out, "{label}:\n{}", lines.join("\n")).unwrap();
        }
    }
    if let JsonValue::Object(fields) = &committed {
        for (label, _) in fields {
            if !digests.iter().any(|(l, _)| label == *l) {
                writeln!(out, "{label}: entry dropped").unwrap();
            }
        }
    }
    writeln!(out, "{untouched} entries untouched").unwrap();
    out
}

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
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    print!("{}", report(&committed, &digests));
    if let Err(e) = std::fs::write(path, document(&digests)) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("blessed {path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::report;

    #[test]
    fn report_lists_changed_appeared_and_vanished_keys_per_entry() {
        let committed = r#"{"a":{"x":1,"y":{"z":2}},"b":{"x":1},"c":{"x":1}}"#;
        let digests = [
            ("a", r#"{"x":1,"y":{"z":3},"w":4}"#.to_string()),
            ("b", r#"{}"#.to_string()),
            ("c", r#"{"x":1}"#.to_string()),
            ("d", r#"{"x":1}"#.to_string()),
        ];
        assert_eq!(
            report(committed, &digests),
            "a:\n  y.z: 2 -> 3\n  w: appeared, 4\n\
             b:\n  x: vanished, was 1\n\
             d: new entry\n\
             1 entries untouched\n"
        );
    }
}
