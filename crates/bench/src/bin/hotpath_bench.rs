//! Hot-path microbenchmark and determinism gate.
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin hotpath_bench               # measure + record
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --check    # CI gate (non-flaky)
//! cargo run --release -p ezflow-bench --bin hotpath_bench -- --bless    # refresh the golden
//! ```
//!
//! Times the two inner-loop workloads the repo optimises for:
//!
//! * **scenario1/quick** — the paper's two merging 8-hop flows at the
//!   `--quick` scale, under both 802.11 and EZ-flow. The committed
//!   pre-optimisation baseline for exactly this run is ~4.0 M events/s
//!   ([`BASELINE_EVENTS_PER_SEC`]); the PR 4 hot-path pass raised it to
//!   ~6.2 M ([`PR4_EVENTS_PER_SEC`]), and the calendar-queue scheduler
//!   with pop-time stale elision is gated on beating *that* by ≥ 1.3×.
//! * **grid/dense** — a 4×4 grid where every node carrier-senses every
//!   other (degree ≈ N), the worst case for the neighbor-list path: the
//!   stressor proves the optimisation never *loses* to the full scan it
//!   replaced, even when the lists cannot shrink the work.
//!
//! Throughput is counted in events **consumed** per wall second —
//! dispatched plus stale-elided plus keyed-rescheduled. Each term is a
//! scheduler entry the simulation paid for that earlier generations
//! dispatched: elision turned dead MAC timers into pop-time counter
//! bumps, and keyed rescheduling (eager parking) then turned almost all
//! of *those* into in-place moves that never reach the pop loop at all.
//! Counting all three keeps the metric apples-to-apples with the
//! committed PR 4 number, which was measured when every stale timer was
//! still dispatched. Each run entry also records the scheduled /
//! dispatched / elided / rescheduled split and the stale fraction
//! (elided over consumed — near zero now that parking removes stale
//! entries before they ever surface).
//!
//! The default mode writes a `"hotpath"` entry (before/after events/s,
//! the per-run elision accounting, machine info) into
//! `BENCH_sim_speed.json`.
//!
//! `--check` is the regression gate `scripts/check.sh` runs: it executes
//! every workload and compares the perf-zeroed snapshots byte-for-byte
//! against the committed golden (`crates/bench/golden/hotpath.json`),
//! failing on any drift; determinism makes this non-flaky. A mismatch
//! names the first diverging snapshot key and both values on stderr. It
//! then *warns* (never fails — CI machines vary) if events/s fell more
//! than 20% below the recorded `"hotpath"` entry.
//!
//! These runs keep the flight recorder **off** (`flight_cap = 0`, the
//! default), so the golden byte-compare doubles as the recorder's
//! zero-cost gate: any recorder code leaking into the disabled path —
//! consuming RNG draws, perturbing scheduling — shows up as snapshot
//! drift, and any residual overhead shows up in the events/s warning.
//! (`crates/net/tests/flight.rs` proves the complementary half: the
//! simulation is bit-identical with the recorder *on*.) The telemetry
//! bus gets the same treatment: the main runs keep it off (golden =
//! zero-cost gate), `--check` re-runs scenario1 with the bus armed and
//! requires the stability-stripped snapshots to match the off-run byte
//! for byte, and measure mode records the telemetry-on events/s as the
//! `"telemetry_overhead"` sub-entry, warning past 10%. The controller
//! audit ledger is gated identically: `--check` re-runs scenario1 with
//! the ledger armed and requires the controller-stripped snapshots to
//! match the off-run byte for byte (the audit is pull-based — no events,
//! no RNG — so nothing needs compensating), and measure mode records the
//! audit-on events/s as `"audit_overhead"`, warning past 10%.

use std::path::PathBuf;

use ezflow_bench::experiments::{scenario1, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::{topo, Network, PerfSnapshot};
use ezflow_sim::{JsonValue, Time};

/// Mean events/s of the two committed `scenario1/quick` baseline
/// snapshots (`BENCH_sim_speed.json` as of the pre-optimisation tree:
/// 4,087,815 for 802.11 and 3,999,336 for EZ-flow) — the "before" the
/// `"hotpath"` entry compares against.
const BASELINE_EVENTS_PER_SEC: f64 = 4_043_575.0;

/// The committed `scenario1/quick` events/s after the PR 4 hot-path pass
/// (neighbor tables, pooled buffers, BOE miss filter) — measured when
/// every stale timer was still dispatched, so directly comparable to the
/// consumed-events rate. The scheduler work is gated on ≥ 1.3× this.
const PR4_EVENTS_PER_SEC: f64 = 6_202_790.0;

/// Relative drop below the recorded entry that triggers the (non-fatal)
/// `--check` performance warning.
const WARN_FRACTION: f64 = 0.20;

/// One timed run: label + the accounting the network left behind.
struct Timed {
    label: String,
    /// Events ever scheduled.
    scheduled: u64,
    /// Events dispatched to handlers.
    dispatched: u64,
    /// Stale timers elided inside the scheduler's pop loop.
    elided: u64,
    /// Timer entries moved in place by keyed rescheduling — consumed
    /// without ever reaching the pop loop.
    rescheduled: u64,
    wall_secs: f64,
    buffer_reuses: u64,
    /// Snapshot JSON, perf zeroed: the deterministic digest.
    digest: String,
}

impl Timed {
    /// Dispatched + elided + rescheduled: every scheduler entry the
    /// simulation consumed, wherever it died.
    fn consumed(&self) -> u64 {
        self.dispatched + self.elided + self.rescheduled
    }

    /// Fraction of consumed entries that went stale before their instant
    /// (the turbulence the eager-parking scheduler is built to remove).
    fn stale_fraction(&self) -> f64 {
        if self.consumed() > 0 {
            self.elided as f64 / self.consumed() as f64
        } else {
            0.0
        }
    }
}

fn timed(label: &str, mut net: Network, until: Time) -> Timed {
    net.run_until(until);
    // `snapshot_json` serialises the latency histograms from borrows —
    // the digest epilogue charges the run no per-flow/per-hop clones.
    let mut doc = net.snapshot_json(label);
    let scheduled = doc
        .get("scheduler")
        .and_then(|s| s.get("scheduled_total"))
        .and_then(JsonValue::as_u64)
        .expect("snapshot document has scheduler.scheduled_total");
    if let JsonValue::Object(fields) = &mut doc {
        // Zero the perf block (wall-clock noise) and strip the sections
        // telemetry and the audit ledger are allowed to add (a no-op on
        // the feature-off runs), so on- and off-digests are comparable.
        // Top-level keys only: each node's controller *name* field stays.
        for (k, v) in fields.iter_mut() {
            if k == "perf" {
                *v = PerfSnapshot::zeroed().to_json();
            }
        }
        fields.retain(|(k, _)| k != "stability" && k != "controller");
    }
    Timed {
        label: label.to_string(),
        scheduled,
        dispatched: net.events_processed(),
        elided: net.sched_stale_elided(),
        rescheduled: net.sched_rescheduled(),
        wall_secs: net.wall_time().as_secs_f64(),
        buffer_reuses: net.buffer_reuses(),
        digest: doc.to_compact(),
    }
}

/// The quick scenario-1 runs — the same topology, timeline, seed and
/// controllers whose perf the committed baseline snapshots recorded.
fn scenario1_runs() -> Vec<Timed> {
    scenario1_runs_with(None, 0)
}

/// Same runs with an explicit telemetry interval (`Some` arms the bus)
/// and audit capacity (nonzero arms the ledger): the overhead workloads
/// and the on/off equivalence gates.
fn scenario1_runs_with(
    telemetry_every: Option<ezflow_sim::Duration>,
    audit_cap: usize,
) -> Vec<Timed> {
    let mut scale = Scale::quick();
    scale.telemetry_every = telemetry_every;
    scale.audit_cap = audit_cap;
    let tl = scenario1::scale_timeline(scale, &[5, 605, 1805, 2504]);
    let (t0, t1, t2, t3) = (tl[0], tl[1], tl[2], tl[3]);
    let mut t = topo::scenario1();
    t.flows[0].start = t0;
    t.flows[0].stop = t3;
    t.flows[1].start = t1;
    t.flows[1].stop = t2;
    [Algo::Plain, Algo::EzFlow]
        .into_iter()
        .map(|algo| {
            let net = Network::new(scale.spec(&t, scale.seed), &*algo.factory());
            timed(&format!("scenario1/{}", algo.name()), net, t3)
        })
        .collect()
}

/// The dense-mesh stressor: every node senses every other.
fn grid_run() -> Timed {
    let until = Time::from_secs(300);
    let t = topo::grid(4, 4, 140.0, Time::ZERO, until);
    let net = Network::new(Scale::quick().spec(&t, 42), &*Algo::Plain.factory());
    timed("grid/4x4/140m", net, until)
}

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/hotpath.json"))
}

fn bench_json_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_speed.json"
    ))
}

/// The committed-golden document: label → perf-zeroed snapshot JSON,
/// compact (single line) — the golden is a machine artifact, not for
/// human diffing, and pretty-printing it costs ~15 k lines of repo.
fn golden_doc(runs: &[Timed]) -> String {
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

/// Consumed (dispatched + elided) events per wall second over `runs`.
fn events_per_sec(runs: &[Timed]) -> f64 {
    let events: u64 = runs.iter().map(Timed::consumed).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_secs).sum();
    if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    }
}

fn run_entry(r: &Timed) -> JsonValue {
    JsonValue::obj(vec![
        ("events_scheduled", (r.scheduled as f64).into()),
        ("events_dispatched", (r.dispatched as f64).into()),
        ("events_elided", (r.elided as f64).into()),
        ("events_rescheduled", (r.rescheduled as f64).into()),
        ("stale_fraction", r.stale_fraction().into()),
        ("wall_secs", r.wall_secs.into()),
        (
            "events_per_sec",
            if r.wall_secs > 0.0 {
                (r.consumed() as f64 / r.wall_secs).into()
            } else {
                0.0.into()
            },
        ),
        ("buffer_reuses", (r.buffer_reuses as f64).into()),
    ])
}

/// Reads `events_per_sec` recorded in the file's `"hotpath"` entry.
fn recorded_events_per_sec(doc: &JsonValue) -> Option<f64> {
    let JsonValue::Object(fields) = doc else {
        return None;
    };
    let entry = &fields.iter().find(|(k, _)| k == "hotpath")?.1;
    let JsonValue::Object(entry) = entry else {
        return None;
    };
    match entry
        .iter()
        .find(|(k, _)| k == "events_per_sec")
        .map(|(_, v)| v)?
    {
        JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

/// Timing passes per workload in measure mode. Wall-clock noise on a
/// shared box only ever slows a run down, so the fastest pass is the
/// machine's demonstrated capability; the digests are identical across
/// passes by determinism.
const PASSES: usize = 3;

fn best_of<F: Fn() -> Vec<Timed>>(f: F) -> Vec<Timed> {
    (0..PASSES)
        .map(|_| f())
        .max_by(|a, b| events_per_sec(a).total_cmp(&events_per_sec(b)))
        .expect("PASSES >= 1")
}

fn measure(out: &PathBuf) -> std::process::ExitCode {
    let mut runs = best_of(scenario1_runs);
    let scenario_eps = events_per_sec(&runs);
    let grid = best_of(|| vec![grid_run()]).remove(0);
    let grid_eps = events_per_sec(std::slice::from_ref(&grid));
    runs.push(grid);
    let speedup = scenario_eps / BASELINE_EVENTS_PER_SEC;
    let speedup_pr4 = scenario_eps / PR4_EVENTS_PER_SEC;
    eprintln!(
        "scenario1/quick: {scenario_eps:.0} events/s consumed \
         ({speedup:.2}x over the {BASELINE_EVENTS_PER_SEC:.0} baseline, \
         {speedup_pr4:.2}x over the {PR4_EVENTS_PER_SEC:.0} PR 4 number)"
    );
    eprintln!("grid/dense:      {grid_eps:.0} events/s consumed");
    for r in &runs {
        eprintln!(
            "  {}: {} dispatched + {} elided + {} rescheduled of {} scheduled \
             in {:.3} s, {} buffer reuses, stale fraction {:.7}",
            r.label,
            r.dispatched,
            r.elided,
            r.rescheduled,
            r.scheduled,
            r.wall_secs,
            r.buffer_reuses,
            r.stale_fraction()
        );
    }

    // Same workload with the telemetry bus armed at its default 100 ms:
    // the recorded telemetry-on cost, gated advisorily at 10%.
    let tel_eps = events_per_sec(&best_of(|| {
        scenario1_runs_with(Some(ezflow_net::NetworkSpec::TELEMETRY_EVERY), 0)
    }));
    let tel_overhead = 1.0 - tel_eps / scenario_eps;
    eprintln!(
        "telemetry on:    {tel_eps:.0} events/s consumed ({:+.1}% vs off)",
        -tel_overhead * 100.0
    );
    if tel_overhead > 0.10 {
        eprintln!(
            "WARNING: telemetry overhead {:.1}% exceeds the 10% budget",
            tel_overhead * 100.0
        );
    }
    let telemetry = JsonValue::obj(vec![
        ("workload", JsonValue::Str("scenario1/quick".to_string())),
        (
            "interval_ms",
            (ezflow_net::NetworkSpec::TELEMETRY_EVERY.as_micros() as f64 / 1000.0).into(),
        ),
        ("events_per_sec_off", scenario_eps.into()),
        ("events_per_sec_on", tel_eps.into()),
        ("overhead_fraction", tel_overhead.into()),
    ]);

    // Same workload with the audit ledger armed at the CLI's default
    // capacity: the recorded audit-on cost, same 10% advisory budget.
    let audit_eps = events_per_sec(&best_of(|| {
        scenario1_runs_with(None, ezflow_net::NetworkSpec::AUDIT_CAP)
    }));
    let audit_overhead = 1.0 - audit_eps / scenario_eps;
    eprintln!(
        "audit on:        {audit_eps:.0} events/s consumed ({:+.1}% vs off)",
        -audit_overhead * 100.0
    );
    if audit_overhead > 0.10 {
        eprintln!(
            "WARNING: audit overhead {:.1}% exceeds the 10% budget",
            audit_overhead * 100.0
        );
    }
    let audit = JsonValue::obj(vec![
        ("workload", JsonValue::Str("scenario1/quick".to_string())),
        (
            "audit_cap",
            (ezflow_net::NetworkSpec::AUDIT_CAP as f64).into(),
        ),
        ("events_per_sec_off", scenario_eps.into()),
        ("events_per_sec_on", audit_eps.into()),
        ("overhead_fraction", audit_overhead.into()),
    ]);

    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut fields = vec![
        (
            "baseline_events_per_sec",
            JsonValue::from(BASELINE_EVENTS_PER_SEC),
        ),
        ("pr4_events_per_sec", PR4_EVENTS_PER_SEC.into()),
        ("events_per_sec", scenario_eps.into()),
        ("speedup_vs_baseline", speedup.into()),
        ("speedup_vs_pr4", speedup_pr4.into()),
        ("machine_parallelism", (machine as f64).into()),
        ("os", JsonValue::Str(std::env::consts::OS.to_string())),
        ("arch", JsonValue::Str(std::env::consts::ARCH.to_string())),
    ];
    for r in &runs {
        fields.push((r.label.as_str(), run_entry(r)));
    }
    fields.push(("telemetry_overhead", telemetry));
    fields.push(("audit_overhead", audit));
    let entry = JsonValue::obj(fields);

    let mut doc = match std::fs::read_to_string(out) {
        Ok(text) => JsonValue::parse(&text).unwrap_or(JsonValue::Object(Vec::new())),
        Err(_) => JsonValue::Object(Vec::new()),
    };
    if let JsonValue::Object(fields) = &mut doc {
        fields.retain(|(k, _)| k != "hotpath");
        fields.push(("hotpath".to_string(), entry));
    }
    let mut text = doc.to_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("failed to write {}: {e}", out.display());
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("recorded hotpath entry in {}", out.display());
    std::process::ExitCode::SUCCESS
}

/// All gated workloads.
fn all_runs() -> Vec<Timed> {
    let mut runs = scenario1_runs();
    runs.push(grid_run());
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

fn check(out: &PathBuf) -> std::process::ExitCode {
    let runs = all_runs();

    // Telemetry-on equivalence: arming the bus must leave the same
    // simulation behind (perf zeroed, stability stripped by `timed`).
    let tel_runs = scenario1_runs_with(Some(ezflow_net::NetworkSpec::TELEMETRY_EVERY), 0);
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
    // simulation behind (controller section stripped by `timed`; the
    // audit schedules nothing, so no counter compensation exists to get
    // wrong — any divergence is a probe writing where it should read).
    let audit_runs = scenario1_runs_with(None, ezflow_net::NetworkSpec::AUDIT_CAP);
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

    let scenario_eps = events_per_sec(&runs[..2]);
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

    // Advisory only: wall-clock differs across machines, so a slow CI box
    // must not fail the gate.
    if let Ok(text) = std::fs::read_to_string(out) {
        if let Ok(doc) = JsonValue::parse(&text) {
            if let Some(recorded) = recorded_events_per_sec(&doc) {
                if scenario_eps < (1.0 - WARN_FRACTION) * recorded {
                    eprintln!(
                        "WARNING: scenario1/quick at {scenario_eps:.0} events/s is more than \
                         {:.0}% below the recorded {recorded:.0} — hot path may have regressed",
                        WARN_FRACTION * 100.0
                    );
                } else {
                    eprintln!(
                        "events/s {scenario_eps:.0} within {:.0}% of the recorded {recorded:.0}",
                        WARN_FRACTION * 100.0
                    );
                }
            }
        }
    }
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
    let mut out = bench_json_path();
    let mut mode = "measure";
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => mode = "check",
            "--bless" => mode = "bless",
            s if s.starts_with("--out=") => out = s["--out=".len()..].into(),
            _ => {
                eprintln!("usage: hotpath_bench [--check | --bless] [--out=FILE]");
                return std::process::ExitCode::from(2);
            }
        }
    }
    match mode {
        "check" => check(&out),
        "bless" => bless(),
        _ => measure(&out),
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
