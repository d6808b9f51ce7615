//! The hot-path golden: the runs every hot-path change must leave
//! observationally identical, and the digests they leave behind.
//!
//! `crates/bench/golden/hotpath.json` maps each [`ENTRIES`] label to its
//! run's digest. `tests/golden.rs` re-runs every entry and compares
//! (`cargo test -p ezflow-bench --test golden`, `--release` for speed);
//! `hotpath_bench --bless` rewrites the file from the entries after an
//! intentional behaviour change. The runs:
//!
//! * **scenario1/…** — the paper's two merging 8-hop flows at the
//!   `--quick` scale, under both 802.11 and EZ-flow.
//! * **grid/4x4/140m** — a 4×4 grid where every node carrier-senses every
//!   other (degree ≈ N), the worst case for the neighbor-list path.
//! * **scenario1+eifs+rts/…** — the same two flows with `mac.eifs` and
//!   `mac.rts_cts` on: NAV freezes and EIFS marks are what no other gated
//!   run (and no `benchmark/` workload) arms.
//! * **mesh1k/3s** — a 3-simulated-second slice of
//!   `scenarios/mesh1k.json`: 1,024 nodes at sensing degree ≈ 67, where
//!   most transmissions overlap others they cannot interfere with — the
//!   only run that pins a mesh byte for byte.
//! * **exports/scenario1+loss/EZ-flow** — scenario 1 under EZ-flow with
//!   PER + Gilbert–Elliott loss and every observer armed (flight recorder
//!   capped at 256 journeys, so it tracks the first 256 packets and
//!   skips the rest; telemetry and audit
//!   streaming into memory). Its digest is not a snapshot but the line
//!   count and FNV-1a of each JSONL export — the byte-for-byte pin on
//!   what the observers write.
//! * **exports/testbed+links/EZ-flow** — the calibrated testbed (a
//!   different PER on every link) under a global Gilbert–Elliott overlay,
//!   one link's own burst chain and two links' up/down schedules,
//!   observers armed the same way: the pin on per-link loss resolution,
//!   digested like the run above plus the channel's loss counters.
//! * **flows/chain4+per/802.11** — a 4-hop chain under uniform 30 % PER
//!   for 20 s carrying the two non-CBR pacings: a windowed flow (window
//!   8) out and an on-off flow back, with ids 7 and 3 — out of order and
//!   not their indices. The loss makes the MAC give frames up, so the
//!   windowed flow's credit timeout writes packets off: the only run that
//!   pins ACK clocking, RTO write-offs and on-off phases under loss.
//!
//! A snapshot digest is the run's snapshot with its perf block zeroed
//! (wall-clock noise) and its `stability` and `controller` sections
//! stripped, so event counts are pinned and wall time never is. The
//! snapshot runs keep every observer off, so the golden doubles as the
//! observers' zero-interference gate: observer code leaking into the
//! disabled path — consuming RNG draws, perturbing scheduling — shows up
//! as drift. `tests/golden.rs` also re-runs scenario 1 with telemetry and
//! with the audit ledger armed against the same entries.
//!
//! Speed is not measured here: that is `benchmark/`'s job
//! (`BENCHMARK.json`, workload `paper_chain` for these runs'
//! `run_ns_per_frame`, `observed_lossy` for the observers-armed cost).

use std::io::Write;
use std::sync::{Arc, Mutex};

use ezflow_net::{
    topo, FlowSpec, Network, NetworkSpec, PerfSnapshot, ScenarioSpec, Topology, Transport,
};
use ezflow_phy::{ChurnWindow, GilbertElliott, LossModel};
use ezflow_sim::json::Key;
use ezflow_sim::{Duration, JsonValue, Time};

use crate::experiments::Algo;
use crate::report::Scale;

/// One gated run.
pub struct Entry {
    /// Its key in `golden/hotpath.json`.
    pub label: &'static str,
    /// Runs the workload and returns its digest (compact JSON).
    pub run: fn() -> String,
}

/// Every gated run, in the golden's order. New runs are appended, so the
/// entries before them keep their bytes in the golden.
pub const ENTRIES: [Entry; 9] = [
    Entry {
        label: "scenario1/802.11",
        run: || scenario1(Algo::Plain, Scale::quick(), false),
    },
    Entry {
        label: "scenario1/EZ-flow",
        run: || scenario1(Algo::EzFlow, Scale::quick(), false),
    },
    Entry {
        label: "grid/4x4/140m",
        run: grid,
    },
    Entry {
        label: "scenario1+eifs+rts/802.11",
        run: || scenario1(Algo::Plain, Scale::quick(), true),
    },
    Entry {
        label: "scenario1+eifs+rts/EZ-flow",
        run: || scenario1(Algo::EzFlow, Scale::quick(), true),
    },
    Entry {
        label: "mesh1k/3s",
        run: mesh1k,
    },
    Entry {
        label: "exports/scenario1+loss/EZ-flow",
        run: exports,
    },
    Entry {
        label: "exports/testbed+links/EZ-flow",
        run: testbed_links,
    },
    Entry {
        label: "flows/chain4+per/802.11",
        run: flows,
    },
];

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
fn digest_of(label: &str, mut net: Network, until: Time, fold_nodes: bool) -> String {
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
    doc.to_compact()
}

/// Scenario 1 on `scale`'s timeline, and the instant its last flow stops.
fn scenario1_quick(scale: Scale) -> (Topology, Time) {
    let tl = crate::experiments::scenario1::scale_timeline(scale, &[5, 605, 1805, 2504]);
    let (t0, t1, t2, t3) = (tl[0], tl[1], tl[2], tl[3]);
    let mut t = topo::scenario1();
    t.flows[0].start = t0;
    t.flows[0].stop = t3;
    t.flows[1].start = t1;
    t.flows[1].stop = t2;
    (t, t3)
}

/// The digest of scenario 1 under `algo` on `scale`'s timeline, labelled
/// `scenario1/<algo>`. `scale` also carries the observers: the gated
/// entries pass [`Scale::quick`] (all off), and the on/off equivalence
/// tests arm telemetry or the audit ledger and expect the same digest.
/// `eifs_rts` turns on EIFS and the RTS/CTS handshake (its own entries,
/// labelled `scenario1+eifs+rts/<algo>`).
pub fn scenario1(algo: Algo, scale: Scale, eifs_rts: bool) -> String {
    let (t, until) = scenario1_quick(scale);
    let mut spec = scale.spec(&t, scale.seed);
    spec.mac.eifs = eifs_rts;
    spec.mac.rts_cts = eifs_rts;
    let net = Network::new(spec, &*algo.factory());
    let arms = if eifs_rts { "+eifs+rts" } else { "" };
    let label = format!("scenario1{arms}/{}", algo.name());
    digest_of(&label, net, until, false)
}

/// The dense-mesh stressor: every node senses every other.
fn grid() -> String {
    let until = Time::from_secs(300);
    let t = topo::grid(4, 4, 140.0, Time::ZERO, until);
    let net = Network::new(Scale::quick().spec(&t, 42), &*Algo::Plain.factory());
    digest_of("grid/4x4/140m", net, until, false)
}

/// The committed 1,024-node mesh, first sweep point, for 3 simulated
/// seconds (flows start at 1 s) — built the way `--spec` builds it.
fn mesh1k() -> String {
    let doc = ScenarioSpec::parse(include_str!("../../../scenarios/mesh1k.json"))
        .expect("scenarios/mesh1k.json parses");
    let compiled = doc.compile().expect("scenarios/mesh1k.json compiles");
    let point = &compiled.points[0];
    let mut spec = Scale::quick().spec(&compiled.topology, point.seed);
    spec.queue_cap = point.queue_cap;
    let algo = Algo::from_name(&point.controller).expect("mesh1k.json names a known controller");
    let net = Network::new(spec, &*algo.factory());
    digest_of("mesh1k/3s", net, Time::from_secs(3), true)
}

/// The windowed and on-off pacings on a lossy 4-hop chain: flow 7 is
/// windowed 0 → 4 (its ACKs come back 4 → 0), flow 3 on-off 4 → 0.
fn flows() -> String {
    let (start, until) = (Time::from_secs(1), Time::from_secs(20));
    let mut t = topo::chain(4, start, until);
    t.loss = LossModel::uniform(0.3);
    t.flows = vec![
        FlowSpec::windowed(7, (0..=4).collect(), 8, start, until),
        FlowSpec {
            transport: Transport::OnOff {
                mean_on: Duration::from_millis(500),
                mean_off: Duration::from_millis(500),
                alpha: 1.5,
            },
            ..FlowSpec::saturating(3, (0..=4).rev().collect(), start, until)
        },
    ];
    let net = Network::new(Scale::quick().spec(&t, 42), &*Algo::Plain.factory());
    digest_of("flows/chain4+per/802.11", net, until, false)
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
/// writes. The recorder's cap of 256 journeys is below the packets the
/// run admits: the first 256 are tracked and the rest skipped, and the
/// returned stats pin that it did.
fn exports() -> String {
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
    JsonValue::obj(digests).to_compact()
}

/// The calibrated testbed with both flows, every link on its own PER, a
/// global burst overlay, the bottleneck `l2` on its own (harsher) burst
/// chain, F2's access link N0′ → N4 down one second in four (data
/// direction only) and `l5` down half a second in seven (both ways) —
/// every way a link's loss process can differ from its neighbours'.
fn testbed_links() -> String {
    let until = Time::from_secs(60);
    let t = topo::testbed(true, true, Time::from_secs(1), until);
    let mut spec = observed_spec(Scale::quick(), &t);
    spec.loss = spec.loss.with_burst(GilbertElliott::classic());
    let l2 = GilbertElliott {
        p_g2b: 0.05,
        p_b2g: 0.2,
        p_good: 0.01,
        p_bad: 0.9,
    };
    spec.loss.set_link_burst(2, 3, l2);
    spec.loss.set_link_burst(3, 2, l2);
    let s = Duration::from_secs;
    let ms = Duration::from_millis;
    spec.loss.set_link_churn(
        topo::TESTBED_F2_SRC,
        4,
        ChurnWindow::new(s(3), s(1), ms(500)),
    );
    let l5 = ChurnWindow::new(s(7), ms(500), s(2));
    spec.loss.set_link_churn(5, 6, l5);
    spec.loss.set_link_churn(6, 5, l5);
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
    JsonValue::obj(digests).to_compact()
}

/// `t`'s network spec on `scale` with every observer armed: telemetry and
/// audit at their defaults, the recorder on the first 256 packets (far
/// fewer than the run's, so it reaches its cap and skips the rest).
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
        stats.skipped > 0,
        "an exports run must reach the recorder's cap: {stats:?}"
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
            ]),
        ),
    ];
    (net, digests)
}

/// The golden document: label → digest, compact (single line) — the
/// golden is a machine artifact, not for human diffing, and
/// pretty-printing it costs ~15 k lines of repo.
pub fn document(digests: &[(&str, String)]) -> String {
    let fields = digests
        .iter()
        .map(|(label, digest)| {
            let value = JsonValue::parse(digest).expect("a digest is valid JSON");
            (Key::from(label.to_string()), value)
        })
        .collect();
    let mut text = JsonValue::Object(fields).to_compact();
    text.push('\n');
    text
}

/// Flattens a JSON document into `(dotted.path, compact leaf)` pairs in
/// document order, each path prefixed by `path`.
pub fn flatten(v: &JsonValue, path: &str, out: &mut Vec<(String, String)>) {
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

/// Names the first key at which digest `got` departs from `want`, with
/// both values, or as missing from `got` or unexpected in it when only
/// one side has it — what a failed comparison prints so the failure
/// explains itself from the log.
pub fn first_divergence(want: &str, got: &str) -> String {
    let (Ok(want), Ok(got)) = (JsonValue::parse(want), JsonValue::parse(got)) else {
        return "one side is not a JSON document".to_string();
    };
    let (mut w, mut g) = (Vec::new(), Vec::new());
    flatten(&want, "", &mut w);
    flatten(&got, "", &mut g);
    let has = |doc: &[(String, String)], key: &str| doc.iter().any(|(k, _)| k == key);
    match w.iter().zip(&g).find(|(a, b)| a != b) {
        Some(((wk, wv), (gk, gv))) if wk == gk => {
            format!("first diverging key: {wk}\n  expected {wv}\n  got      {gv}")
        }
        Some(((wk, wv), _)) if !has(&g, wk) => {
            format!("first diverging key: key {wk} (= {wv}) is missing")
        }
        Some((_, (gk, _))) if !has(&w, gk) => format!("first diverging key: unexpected key {gk}"),
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
        assert!(renamed.contains("key b (= 2) is missing"), "{renamed}");
        let missing = first_divergence(r#"{"a":1,"b":2,"c":3}"#, r#"{"a":1,"c":3}"#);
        assert!(missing.contains("key b (= 2) is missing"), "{missing}");
        let unexpected = first_divergence(r#"{"a":1,"c":3}"#, r#"{"a":1,"b":2,"c":3}"#);
        assert!(unexpected.contains("unexpected key b"), "{unexpected}");
        // Both keys occur on both sides, in another order.
        let swapped = first_divergence(r#"{"a":1,"b":2}"#, r#"{"b":2,"a":1}"#);
        assert!(swapped.contains("expected a = 1, got b = 2"), "{swapped}");
        let shorter = first_divergence(r#"{"a":1,"b":2}"#, r#"{"a":1}"#);
        assert!(shorter.contains("expected 2 keys, got 1"), "{shorter}");
    }
}
