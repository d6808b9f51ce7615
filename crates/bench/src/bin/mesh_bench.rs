//! The large-mesh scale gate: runs `scenarios/mesh1k.json` (a 1,024-node
//! random-geometric mesh with 4 gateways and a mixed CBR / windowed /
//! on-off workload) and holds the simulator to a stated budget:
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin mesh_bench             # measure + gate
//! cargo run --release -p ezflow-bench --bin mesh_bench -- --record # also update BENCH_sim_speed.json
//! cargo run --release -p ezflow-bench --bin mesh_bench -- --spec=scenarios/other.json
//! ```
//!
//! The gate is deliberately loose — half the demonstrated events/s, 4×
//! the demonstrated peak RSS — so it catches real regressions (an
//! accidental O(n²) in the hot path, a leak that scales with node count)
//! without flaking on machine noise. The measured numbers, plus the
//! scenario's own throughput / p99 / fairness summary, are recorded as
//! the `"mesh1k"` entry of `BENCH_sim_speed.json` by `--record`,
//! preserving every other entry in the file.

use std::path::PathBuf;

use ezflow_bench::experiments::{spec, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::Network;
use ezflow_sim::{JsonValue, Time};

/// Consumed events per wall second the mesh run must sustain. The
/// demonstrated rate on the reference machine is ~1.3M events/s (lower
/// than the chain workloads' ~9M: a thousand-node mesh pays for large
/// carrier-sense neighborhoods on every transmission); gating at a
/// third of that leaves room for slower CI boxes while still catching
/// complexity regressions, which cost 10×, not 2×.
const MIN_EVENTS_PER_SEC: f64 = 400_000.0;

/// Peak-RSS ceiling for the whole process (build + run + report). The
/// demonstrated footprint is ~20 MB; a 1,024-node network that suddenly
/// needs more than this has grown a per-node-pair structure somewhere.
const MAX_PEAK_RSS_BYTES: u64 = 512 * 1024 * 1024;

/// Extracts the peak-RSS high-water mark, in bytes, from the text of a
/// `/proc/<pid>/status` document (the `VmHWM:` line, recorded by the
/// kernel in kB). Pure so the parse is unit-testable on a canned
/// document; `None` when the line is absent or malformed.
fn parse_vm_hwm(status_text: &str) -> Option<u64> {
    let line = status_text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process, from `/proc/self/status` VmHWM
/// (linux only; `None` elsewhere, which skips the RSS gate).
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> Option<u64> {
    // Keep the pure parser compiled (and its tests meaningful) even
    // where there is no procfs to read.
    let _ = parse_vm_hwm;
    None
}

fn bench_json_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_speed.json"
    ))
}

fn default_spec_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/mesh1k.json"
    ))
}

fn main() -> std::process::ExitCode {
    let mut record = false;
    let mut spec_path = default_spec_path();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--record" => record = true,
            s if s.starts_with("--spec=") => {
                spec_path = PathBuf::from(&s["--spec=".len()..]);
            }
            other => {
                eprintln!("unknown arg: {other}\nusage: mesh_bench [--record] [--spec=FILE]");
                return std::process::ExitCode::from(2);
            }
        }
    }

    let doc = match spec::load(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spec error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let compiled = match doc.compile() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spec error: {}: {e}", spec_path.display());
            return std::process::ExitCode::FAILURE;
        }
    };
    // The gate runs the sweep's first point only: one canonical
    // configuration, timed alone, so the recorded rate means one thing.
    let point = &compiled.points[0];
    let Some(algo) = Algo::from_name(&point.controller) else {
        eprintln!("unknown controller in spec: {}", point.controller);
        return std::process::ExitCode::FAILURE;
    };
    let scale = Scale::full();
    let mut ns = scale.spec(&compiled.topology, point.seed);
    ns.queue_cap = point.queue_cap;

    let flows: Vec<u32> = compiled.topology.flows.iter().map(|f| f.id).collect();
    let nodes = compiled.topology.positions.len();
    eprintln!(
        "{}: {} nodes, {} flows, {} simulated ({})",
        compiled.name,
        nodes,
        flows.len(),
        compiled.until,
        point.label
    );

    let mut net = Network::new(ns, &*algo.factory());
    net.run_until(compiled.until);
    // Consumed = dispatched + stale-elided + keyed-rescheduled: every
    // scheduler entry paid for, wherever it died (see hotpath_bench).
    let elided = net.sched_stale_elided();
    let consumed = net.events_processed() + elided + net.sched_rescheduled();
    let stale_fraction = if consumed > 0 {
        elided as f64 / consumed as f64
    } else {
        0.0
    };
    let wall = net.wall_time().as_secs_f64();
    let eps = if wall > 0.0 {
        consumed as f64 / wall
    } else {
        0.0
    };
    let (tput, p99, jain) = spec::summarize(&net, &flows, Time::ZERO, compiled.until);
    let rss = peak_rss_bytes();

    eprintln!(
        "  {consumed} events consumed in {wall:.3} s = {eps:.0} events/s \
         (stale fraction {stale_fraction:.7}, arena high water {})",
        net.arena_high_water()
    );
    eprintln!(
        "  aggregate throughput {tput:.1} kb/s, e2e p99 {p99:.3} s, Jain min {:.2} (mean {:.2})",
        jain.0, jain.1
    );
    match rss {
        Some(b) => eprintln!("  peak RSS {:.1} MB", b as f64 / (1024.0 * 1024.0)),
        None => eprintln!("  peak RSS unavailable on this platform (gate skipped)"),
    }

    let mut ok = true;
    if eps < MIN_EVENTS_PER_SEC {
        eprintln!("FAIL: {eps:.0} events/s below the {MIN_EVENTS_PER_SEC:.0} budget");
        ok = false;
    }
    if let Some(b) = rss {
        if b > MAX_PEAK_RSS_BYTES {
            eprintln!(
                "FAIL: peak RSS {} bytes exceeds the {} budget",
                b, MAX_PEAK_RSS_BYTES
            );
            ok = false;
        }
    }

    if record {
        // Record the repo-relative spec path when resolvable — the entry
        // should read the same on every machine.
        let repo_root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let spec_display = match (spec_path.canonicalize(), repo_root.canonicalize()) {
            (Ok(p), Ok(r)) => p
                .strip_prefix(&r)
                .map(|x| x.display().to_string())
                .unwrap_or_else(|_| p.display().to_string()),
            _ => spec_path.display().to_string(),
        };
        let entry = JsonValue::obj(vec![
            ("spec", JsonValue::Str(spec_display)),
            ("label", JsonValue::Str(point.label.clone())),
            ("nodes", (nodes as f64).into()),
            ("flows", (flows.len() as f64).into()),
            ("sim_secs", (compiled.until.as_micros() as f64 / 1e6).into()),
            ("events_consumed", (consumed as f64).into()),
            ("stale_fraction", stale_fraction.into()),
            ("arena_high_water", (net.arena_high_water() as f64).into()),
            ("wall_secs", wall.into()),
            ("events_per_sec", eps.into()),
            ("min_events_per_sec_budget", MIN_EVENTS_PER_SEC.into()),
            (
                "peak_rss_bytes",
                rss.map(|b| (b as f64).into()).unwrap_or(JsonValue::Null),
            ),
            (
                "max_peak_rss_bytes_budget",
                (MAX_PEAK_RSS_BYTES as f64).into(),
            ),
            ("throughput_kbps", tput.into()),
            ("e2e_p99_secs", p99.into()),
            ("jain_min_window", jain.0.into()),
            ("jain_mean_window", jain.1.into()),
            ("os", JsonValue::Str(std::env::consts::OS.to_string())),
            ("arch", JsonValue::Str(std::env::consts::ARCH.to_string())),
        ]);
        let out = bench_json_path();
        let mut docjson = match std::fs::read_to_string(&out) {
            Ok(text) => JsonValue::parse(&text).unwrap_or(JsonValue::Object(Vec::new())),
            Err(_) => JsonValue::Object(Vec::new()),
        };
        if let JsonValue::Object(fields) = &mut docjson {
            fields.retain(|(k, _)| k != "mesh1k");
            fields.push(("mesh1k".to_string(), entry));
        }
        let mut text = docjson.to_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("failed to write {}: {e}", out.display());
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("recorded mesh1k entry in {}", out.display());
    }

    if ok {
        eprintln!("mesh budget gate PASSED");
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_vm_hwm;

    /// A canned `/proc/self/status` excerpt — the parse must survive the
    /// document's other Vm* lines (in particular `VmHWM` vs `VmRSS`
    /// prefix confusion) and the kernel's tab-and-space formatting.
    const STATUS: &str = "Name:\tmesh_bench\n\
        Umask:\t0022\n\
        VmPeak:\t  123456 kB\n\
        VmSize:\t  100000 kB\n\
        VmHWM:\t   20480 kB\n\
        VmRSS:\t   18000 kB\n\
        Threads:\t1\n";

    #[test]
    fn parses_vm_hwm_from_a_canned_status_document() {
        assert_eq!(parse_vm_hwm(STATUS), Some(20480 * 1024));
    }

    #[test]
    fn missing_or_malformed_lines_yield_none() {
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }
}
