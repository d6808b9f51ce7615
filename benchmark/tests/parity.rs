//! Build parity: the harness must be compiled exactly as the simulator's
//! own release binaries are, or it measures a build nobody runs.

use std::collections::BTreeMap;

/// The `key = value` pairs of one TOML table, comments and blanks
/// dropped. Enough TOML for a `[profile.*]` table of scalars.
fn table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').expect("key = value");
            let v = v.split('#').next().expect("split yields a first piece");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

#[test]
fn release_profile_equals_the_repository_root_profile() {
    let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        .expect("repository root manifest");
    let own = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("harness manifest");
    let root_profile = table(&root, "[profile.release]");
    assert!(
        !root_profile.is_empty(),
        "the root manifest has no [profile.release] to copy"
    );
    assert_eq!(table(&own, "[profile.release]"), root_profile);
}

#[test]
fn table_reader_stops_at_the_next_header_and_drops_comments() {
    let doc = "[a]\nx = 1\n[profile.release]\n# why\nlto = \"fat\" # note\n\npanic = \"abort\"\n[b]\ny = 2\n";
    let t = table(doc, "[profile.release]");
    assert_eq!(t.len(), 2);
    assert_eq!(t["lto"], "\"fat\"");
    assert_eq!(t["panic"], "\"abort\"");
    assert!(table(doc, "[profile.bench]").is_empty());
}
