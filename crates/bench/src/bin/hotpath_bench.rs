//! Hot-path determinism gate.
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --check    # CI gate (the default)
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --bless    # refresh the golden
//! ```
//!
//! Runs the inner-loop workloads every hot-path change must leave
//! observationally identical:
//!
//! * **scenario1/quick** — the paper's two merging 8-hop flows at the
//!   `--quick` scale, under both 802.11 and EZ-flow.
//! * **grid/dense** — a 4×4 grid where every node carrier-senses every
//!   other (degree ≈ N), the worst case for the neighbor-list path.
//! * **scenario1+eifs+rts/quick** — the same two flows with `mac.eifs`
//!   and `mac.rts_cts` on: NAV freezes and EIFS marks are what no other
//!   gated run (and no `benchmark/` workload) arms.
//! * **mesh1k/3s** — a 3-simulated-second slice of
//!   `scenarios/mesh1k.json`: 1,024 nodes at sensing degree ≈ 67, where
//!   most transmissions overlap others they cannot interfere with — the
//!   only run that pins a mesh byte for byte.
//! * **exports/…** — scenario 1 under EZ-flow with PER + Gilbert–Elliott
//!   loss and every observer armed (flight recorder at 256 journeys, so
//!   it evicts *and* samples; telemetry and audit streaming into
//!   memory). Its golden entry is not a snapshot but the line count
//!   and FNV-1a of each JSONL export — the byte-for-byte pin on what the
//!   observers write.
//! * **exports/testbed+links** — the calibrated testbed (a different PER
//!   on every link) under a global Gilbert–Elliott overlay, one link's own
//!   burst chain and two links' up/down schedules, observers armed the
//!   same way: the pin on per-link loss resolution, digested like the
//!   run above plus the channel's loss counters.
//!
//! `--check` (also what a bare invocation runs, so nothing but `--bless`
//! ever writes a committed file) is the regression gate
//! `scripts/check.sh` runs: it executes every workload and compares the
//! perf-zeroed snapshots byte-for-byte against the committed golden
//! (`crates/bench/golden/hotpath.json`), failing on any drift;
//! determinism makes this non-flaky. A mismatch names the first
//! diverging snapshot key and both values on stderr.
//!
//! Speed is not measured here: that is `benchmark/`'s job
//! (`BENCHMARK.json`, workload `paper_chain` for these runs'
//! `run_ns_per_frame`, `observed_lossy` for the observers-armed cost).
//!
//! The snapshot runs keep the flight recorder **off** (`flight_cap = 0`,
//! the default), so the golden byte-compare doubles as the recorder's
//! zero-interference gate: any recorder code leaking into the disabled
//! path — consuming RNG draws, perturbing scheduling — shows up as
//! snapshot drift. (`crates/net/tests/flight.rs` proves the
//! complementary half: the simulation is bit-identical with the recorder
//! *on*.) The telemetry bus gets the same treatment: the main runs keep
//! it off, and `--check` re-runs scenario1 with the bus armed and
//! requires the stability-stripped snapshots to match the off-run byte
//! for byte. The controller audit ledger is gated identically: `--check`
//! re-runs scenario1 with the ledger armed and requires the
//! controller-stripped snapshots to match the off-run byte for byte (the
//! audit is pull-based — no events, no RNG — so nothing needs
//! compensating).

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ezflow_bench::experiments::{scenario1, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::{topo, Network, NetworkSpec, PerfSnapshot, ScenarioSpec, Topology};
use ezflow_phy::{ChurnWindow, GilbertElliott, LossModel};
use ezflow_sim::{JsonValue, Time};

/// One gated run: label + the deterministic digest it left behind.
struct Run {
    label: String,
    /// Snapshot JSON, perf zeroed (for the exports run: its export
    /// digests), compact.
    digest: String,
}

/// FNV-1a, 64-bit: the per-node fold of [`digest_of`] needs a fixed,
/// dependency-free hash, not a strong one.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replaces every element of a per-node array by the hash of its compact
/// JSON: the bytes stay pinned and a divergence still names the node
/// (`nodes[417]`), at 18 bytes per node instead of ~700.
fn fold_elements(v: &mut JsonValue) {
    if let JsonValue::Array(items) = v {
        for item in items {
            *item = JsonValue::str(format!("{:016x}", fnv1a64(item.to_compact().as_bytes())));
        }
    }
}

/// Runs `net` to `until` and digests its snapshot. `fold_nodes` is for
/// the 1,024-node run, whose per-node sections would otherwise put
/// 700 KB into the golden.
fn digest_of(label: &str, mut net: Network, until: Time, fold_nodes: bool) -> Run {
    net.run_until(until);
    // `snapshot_json` serialises the latency histograms from borrows —
    // the digest epilogue charges the run no per-flow/per-hop clones.
    let mut doc = net.snapshot_json(label);
    if let JsonValue::Object(fields) = &mut doc {
        // Zero the perf block (wall-clock noise) and strip the sections
        // telemetry and the audit ledger are allowed to add (a no-op on
        // the feature-off runs), so on- and off-digests are comparable.
        // Top-level keys only: each node's controller *name* field stays.
        for (k, v) in fields.iter_mut() {
            match (k.as_str(), v) {
                ("perf", v) => *v = PerfSnapshot::zeroed().to_json(),
                ("nodes", v) if fold_nodes => fold_elements(v),
                ("latency", JsonValue::Object(latency)) if fold_nodes => {
                    for (_, per_hop) in latency.iter_mut().filter(|(k, _)| k == "per_hop") {
                        fold_elements(per_hop);
                    }
                }
                _ => {}
            }
        }
        fields.retain(|(k, _)| k != "stability" && k != "controller");
    }
    Run {
        label: label.to_string(),
        digest: doc.to_compact(),
    }
}

/// Scenario 1 on `scale`'s timeline, and the instant its last flow stops.
fn scenario1_quick(scale: Scale) -> (Topology, Time) {
    let tl = scenario1::scale_timeline(scale, &[5, 605, 1805, 2504]);
    let (t0, t1, t2, t3) = (tl[0], tl[1], tl[2], tl[3]);
    let mut t = topo::scenario1();
    t.flows[0].start = t0;
    t.flows[0].stop = t3;
    t.flows[1].start = t1;
    t.flows[1].stop = t2;
    (t, t3)
}

/// The quick scenario-1 runs with an explicit telemetry interval (`Some`
/// arms the bus) and audit capacity (nonzero arms the ledger): `(None, 0)`
/// is the golden pair, the armed variants feed the on/off equivalence
/// gates. `eifs_rts` turns on EIFS and the RTS/CTS handshake (its own
/// golden pair, labelled apart).
fn scenario1_runs(
    telemetry_every: Option<ezflow_sim::Duration>,
    audit_cap: usize,
    eifs_rts: bool,
) -> Vec<Run> {
    let mut scale = Scale::quick();
    scale.telemetry_every = telemetry_every;
    scale.audit_cap = audit_cap;
    let (t, t3) = scenario1_quick(scale);
    [Algo::Plain, Algo::EzFlow]
        .into_iter()
        .map(|algo| {
            let mut spec = scale.spec(&t, scale.seed);
            spec.mac.eifs = eifs_rts;
            spec.mac.rts_cts = eifs_rts;
            let net = Network::new(spec, &*algo.factory());
            let arms = if eifs_rts { "+eifs+rts" } else { "" };
            digest_of(&format!("scenario1{arms}/{}", algo.name()), net, t3, false)
        })
        .collect()
}

/// The dense-mesh stressor: every node senses every other.
fn grid_run() -> Run {
    let until = Time::from_secs(300);
    let t = topo::grid(4, 4, 140.0, Time::ZERO, until);
    let net = Network::new(Scale::quick().spec(&t, 42), &*Algo::Plain.factory());
    digest_of("grid/4x4/140m", net, until, false)
}

/// The committed 1,024-node mesh, first sweep point, for 3 simulated
/// seconds (flows start at 1 s) — built the way `--spec` builds it.
fn mesh_run() -> Run {
    let doc = ScenarioSpec::parse(include_str!("../../../../scenarios/mesh1k.json"))
        .expect("scenarios/mesh1k.json parses");
    let compiled = doc.compile().expect("scenarios/mesh1k.json compiles");
    let point = &compiled.points[0];
    let mut spec = Scale::quick().spec(&compiled.topology, point.seed);
    spec.queue_cap = point.queue_cap;
    let algo = Algo::from_name(&point.controller).expect("mesh1k.json names a known controller");
    let net = Network::new(spec, &*algo.factory());
    digest_of("mesh1k/3s", net, Time::from_secs(3), true)
}

/// An in-memory JSONL sink for the streaming observers.
#[derive(Clone, Default)]
struct MemSink(Arc<Mutex<Vec<u8>>>);

impl Write for MemSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("sink writer panicked")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Line count and hash of one JSONL export — its golden entry.
fn export_digest(bytes: &[u8]) -> JsonValue {
    JsonValue::obj(vec![
        (
            "lines",
            bytes.iter().filter(|&&b| b == b'\n').count().into(),
        ),
        (
            "fnv1a64",
            JsonValue::str(format!("{:016x}", fnv1a64(bytes))),
        ),
    ])
}

/// Every observer armed on a lossy scenario 1 (the loss process of
/// `benchmark/workloads/observed_lossy.json`), digesting what each one
/// writes. 256 journeys against ~650 queue slots forces the recorder
/// through eviction and stride doubling; the returned stats pin that it
/// did.
fn exports_run() -> Run {
    let scale = Scale::quick();
    let (t, until) = scenario1_quick(scale);
    let mut spec = observed_spec(scale, &t);
    spec.loss = LossModel::uniform(0.05).with_burst(GilbertElliott {
        p_g2b: 0.02,
        p_b2g: 0.25,
        p_good: 0.0,
        p_bad: 0.6,
    });
    let (_, digests) = observed_run(spec, until);
    Run {
        label: format!("exports/scenario1+loss/{}", Algo::EzFlow.name()),
        digest: JsonValue::obj(digests).to_compact(),
    }
}

/// The calibrated testbed with both flows, every link on its own PER, a
/// global burst overlay, the bottleneck `l2` on its own (harsher) burst
/// chain, F2's access link N0′ → N4 down one second in four (data
/// direction only) and `l5` down half a second in seven (both ways) —
/// every way a link's loss process can differ from its neighbours'.
fn loss_links_run() -> Run {
    let until = Time::from_secs(60);
    let t = topo::testbed(true, true, Time::from_secs(1), until);
    let mut spec = observed_spec(Scale::quick(), &t);
    spec.loss = spec.loss.with_burst(GilbertElliott::classic());
    spec.loss.set_link_burst_symmetric(
        2,
        3,
        GilbertElliott {
            p_g2b: 0.05,
            p_b2g: 0.2,
            p_good: 0.01,
            p_bad: 0.9,
        },
    );
    let s = ezflow_sim::Duration::from_secs;
    let ms = ezflow_sim::Duration::from_millis;
    spec.loss.set_link_churn(
        topo::TESTBED_F2_SRC,
        4,
        ChurnWindow::new(s(3), s(1), ms(500)),
    );
    spec.loss
        .set_link_churn_symmetric(5, 6, ChurnWindow::new(s(7), ms(500), s(2)));
    let (net, mut digests) = observed_run(spec, until);
    let c = net.channel_stats();
    digests.push((
        "channel",
        JsonValue::obj(vec![
            ("tx_started", c.tx_started.into()),
            ("losses", c.bernoulli_losses.into()),
            ("collisions", c.collisions_at_dst.into()),
            ("clean", c.clean_deliveries.into()),
        ]),
    ));
    Run {
        label: format!("exports/testbed+links/{}", Algo::EzFlow.name()),
        digest: JsonValue::obj(digests).to_compact(),
    }
}

/// `t`'s network spec on `scale` with every observer armed: telemetry and
/// audit at their defaults, 256 journeys (against hundreds of queue
/// slots, so the recorder evicts and samples).
fn observed_spec(mut scale: Scale, t: &Topology) -> NetworkSpec {
    scale.telemetry_every = Some(NetworkSpec::TELEMETRY_EVERY);
    scale.audit_cap = NetworkSpec::AUDIT_CAP;
    let mut spec = scale.spec(t, scale.seed);
    spec.flight_cap = 256;
    spec
}

/// Runs `spec` under EZ-flow to `until` with the two streams sunk into
/// memory; returns the finished network and the digest of every export
/// plus the recorder's stats.
fn observed_run(spec: NetworkSpec, until: Time) -> (Network, Vec<(&'static str, JsonValue)>) {
    let mut net = Network::new(spec, &*Algo::EzFlow.factory());
    let (telemetry, audit) = (MemSink::default(), MemSink::default());
    net.telemetry.set_sink(Box::new(telemetry.clone()));
    net.audit.set_sink(Box::new(audit.clone()));
    net.run_until(until);
    let stats = net.flight.stats();
    assert!(
        stats.evicted > 0 && stats.stride > 1,
        "an exports run must exercise eviction and sampling: {stats:?}"
    );
    let sunk = |s: &MemSink| export_digest(&s.0.lock().expect("sink writer panicked"));
    let digests = vec![
        ("lifecycle", export_digest(net.flight.to_jsonl().as_bytes())),
        ("telemetry", sunk(&telemetry)),
        ("audit", sunk(&audit)),
        (
            "flight_stats",
            JsonValue::obj(vec![
                ("tracked", stats.tracked.into()),
                ("skipped", stats.skipped.into()),
                ("evicted", stats.evicted.into()),
                ("stride", stats.stride.into()),
            ]),
        ),
    ];
    (net, digests)
}

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/hotpath.json"))
}

/// The committed-golden document: label → perf-zeroed snapshot JSON,
/// compact (single line) — the golden is a machine artifact, not for
/// human diffing, and pretty-printing it costs ~15 k lines of repo.
fn golden_doc(runs: &[Run]) -> String {
    let fields = runs
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                JsonValue::parse(&r.digest).expect("digest is valid JSON"),
            )
        })
        .collect();
    let mut text = JsonValue::Object(fields).to_compact();
    text.push('\n');
    text
}

/// All gated workloads — every observer off but for the last, which pins
/// the observers' own output. New runs are appended, so the entries
/// before them keep their bytes in the golden.
fn all_runs() -> Vec<Run> {
    let mut runs = scenario1_runs(None, 0, false);
    runs.push(grid_run());
    runs.extend(scenario1_runs(None, 0, true));
    runs.push(mesh_run());
    runs.push(exports_run());
    runs.push(loss_links_run());
    runs
}

/// Flattens a JSON document into `(dotted.path, compact leaf)` pairs in
/// document order.
fn flatten(v: &JsonValue, path: &str, out: &mut Vec<(String, String)>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, v) in fields {
                let sep = if path.is_empty() { "" } else { "." };
                flatten(v, &format!("{path}{sep}{k}"), out);
            }
        }
        JsonValue::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{path}[{i}]"), out);
            }
        }
        leaf => out.push((path.to_string(), leaf.to_compact())),
    }
}

/// Names the first snapshot key at which `got` departs from `want`, with
/// both values — what a failed digest comparison prints so the failure
/// explains itself from the log.
fn first_divergence(want: &str, got: &str) -> String {
    let (Ok(want), Ok(got)) = (JsonValue::parse(want), JsonValue::parse(got)) else {
        return "one side is not a JSON document".to_string();
    };
    let (mut w, mut g) = (Vec::new(), Vec::new());
    flatten(&want, "", &mut w);
    flatten(&got, "", &mut g);
    match w.iter().zip(&g).find(|(a, b)| a != b) {
        Some(((wk, wv), (gk, gv))) if wk == gk => {
            format!("first diverging key: {wk}\n  expected {wv}\n  got      {gv}")
        }
        Some(((wk, wv), (gk, gv))) => {
            format!("first diverging key: expected {wk} = {wv}, got {gk} = {gv}")
        }
        None => format!(
            "documents agree on their first {} keys; expected {} keys, got {}",
            w.len().min(g.len()),
            w.len(),
            g.len()
        ),
    }
}

fn check() -> std::process::ExitCode {
    let runs = all_runs();

    // Telemetry-on equivalence: arming the bus must leave the same
    // simulation behind (perf zeroed, stability stripped by `digest_of`).
    let tel_runs = scenario1_runs(Some(NetworkSpec::TELEMETRY_EVERY), 0, false);
    for (t, w) in tel_runs.iter().zip(&runs) {
        if t.digest != w.digest {
            eprintln!(
                "telemetry-on snapshot DIVERGED from telemetry-off on {}: the\n\
                 sampler must never perturb the simulation; see crates/net/src/telemetry.rs.\n{}",
                t.label,
                first_divergence(&w.digest, &t.digest)
            );
            return std::process::ExitCode::FAILURE;
        }
    }
    eprintln!("telemetry-on snapshots byte-identical to telemetry-off");

    // Audit-on equivalence: arming the ledger must leave the same
    // simulation behind (controller section stripped by `digest_of`; the
    // audit schedules nothing, so no counter compensation exists to get
    // wrong — any divergence is a probe writing where it should read).
    let audit_runs = scenario1_runs(None, NetworkSpec::AUDIT_CAP, false);
    for (a, w) in audit_runs.iter().zip(&runs) {
        if a.digest != w.digest {
            eprintln!(
                "audit-on snapshot DIVERGED from audit-off on {}: the audit\n\
                 ledger must never perturb the simulation; see crates/net/src/audit.rs.\n{}",
                a.label,
                first_divergence(&w.digest, &a.digest)
            );
            return std::process::ExitCode::FAILURE;
        }
    }
    eprintln!("audit-on snapshots byte-identical to audit-off");

    let got = golden_doc(&runs);
    let golden = match std::fs::read_to_string(golden_path()) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "hotpath golden missing ({}): {e}\nrun `hotpath_bench --bless` and commit the result",
                golden_path().display()
            );
            return std::process::ExitCode::FAILURE;
        }
    };
    if got != golden {
        eprintln!(
            "hotpath snapshots DIVERGED from the committed golden ({}).\n\
             The hot-path optimisations must be observationally identical; if the\n\
             simulation's behaviour changed on purpose, re-bless with\n\
             `cargo run --release -p ezflow-bench --bin hotpath_bench -- --bless`.\n{}",
            golden_path().display(),
            first_divergence(&golden, &got)
        );
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("hotpath snapshots byte-identical to the committed golden");
    std::process::ExitCode::SUCCESS
}

fn bless() -> std::process::ExitCode {
    let text = golden_doc(&all_runs());
    let path = golden_path();
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            return std::process::ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("failed to write {}: {e}", path.display());
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("blessed {}", path.display());
    std::process::ExitCode::SUCCESS
}

fn main() -> std::process::ExitCode {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (None | Some("--check"), None) => check(),
        (Some("--bless"), None) => bless(),
        _ => {
            eprintln!("usage: hotpath_bench [--check | --bless]");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::first_divergence;

    #[test]
    fn first_divergence_names_the_key_and_both_values() {
        let want = r#"{"a":1,"nodes":[{"mac":{"tx":5}},{"mac":{"tx":7,"rx":2}}]}"#;
        let got = r#"{"a":1,"nodes":[{"mac":{"tx":5}},{"mac":{"tx":8,"rx":2}}]}"#;
        let msg = first_divergence(want, got);
        assert!(msg.contains("nodes[1].mac.tx"), "{msg}");
        assert!(
            msg.contains("expected 7") && msg.contains("got      8"),
            "{msg}"
        );
        // A key present on one side only, and a plain length mismatch.
        let renamed = first_divergence(r#"{"a":1,"b":2}"#, r#"{"a":1,"c":2}"#);
        assert!(renamed.contains("expected b = 2, got c = 2"), "{renamed}");
        let shorter = first_divergence(r#"{"a":1,"b":2}"#, r#"{"a":1}"#);
        assert!(shorter.contains("expected 2 keys, got 1"), "{shorter}");
    }
}
