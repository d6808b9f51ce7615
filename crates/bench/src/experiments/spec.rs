//! Scenario-spec runs: the bridge from a declarative JSON document
//! (`scenarios/*.json`, see [`ezflow_net::scenario`]) to the same
//! [`Report`] machinery the named experiments use.
//!
//! One spec expands into a sweep of runs (controller × queue-cap × seed),
//! executed through the [`crate::runner::SweepRunner`] like every other
//! experiment. Each run reports aggregate throughput, end-to-end p99
//! latency (from the per-flow log histograms) and windowed Jain fairness
//! (floor and mean), and attaches the usual cross-layer
//! [`RunSnapshot`](ezflow_net::RunSnapshot); being [`Job`]s, the runs
//! export their observers exactly as the named experiments' do.

use std::path::{Path, PathBuf};

use ezflow_net::scenario::MAX_DURATION_SECS;
use ezflow_net::ScenarioSpec;
use ezflow_sim::Time;

use super::{fairness_windows, Algo};
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Reads and parses a spec file; errors carry the path and, for syntax
/// errors, the line/column the in-tree JSON kernel reports.
pub fn load(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Scales a nominal spec duration the way `--quick` / `--time=F` demand.
/// Spec durations are the author's own, not the paper's multi-kilosecond
/// timelines, so the floor is 1 s — not the 30 s the named experiments
/// use to protect the CAA's convergence. The ceiling is the parser's own:
/// a factor that takes `duration_secs` past it is the same silent hang
/// the parser refuses, arrived at by another road.
fn scaled_until(until: Time, scale: &Scale) -> Result<Time, String> {
    let micros = until.as_micros() as f64 * scale.time;
    if !(0.0..=MAX_DURATION_SECS * 1e6).contains(&micros) {
        return Err(format!(
            "--time={:?} scales the spec's {until} to {:e} s; must stay in [0, {MAX_DURATION_SECS:e}]",
            scale.time,
            micros / 1e6
        ));
    }
    Ok(Time::from_micros((micros as u64).max(1_000_000)))
}

/// Whether `scale` can run `spec` at all: what [`run_spec`] would refuse
/// before simulating anything, without compiling — for a caller that
/// wants to reject its whole command line up front.
pub fn check_scale(spec: &ScenarioSpec, scale: &Scale) -> Result<(), String> {
    scaled_until(Time::from_micros((spec.duration_secs * 1e6) as u64), scale).map(drop)
}

/// Compiles and runs every sweep point of `spec`, returning one report.
/// Fails (as a message, not a panic) when the document is invalid or
/// names a controller this harness doesn't have.
pub fn run_spec(spec: &ScenarioSpec, scale: &Scale) -> Result<Report, String> {
    let compiled = spec.compile().map_err(|e| e.to_string())?;
    let until = scaled_until(compiled.until, scale)?;

    let mut jobs = Vec::with_capacity(compiled.points.len());
    for point in &compiled.points {
        let algo = Algo::from_name(&point.controller).ok_or_else(|| {
            format!(
                "spec `{}`: unknown controller '{}' (known: 802.11, EZ-flow, EZ-flow (2^10 cap))",
                compiled.name, point.controller
            )
        })?;
        let mut ns = scale.spec(&compiled.topology, point.seed);
        ns.queue_cap = point.queue_cap;
        jobs.push(Job::new(point.label.clone(), ns, until, algo.factory()));
    }

    let mut rep = Report::new(compiled.name.clone(), spec_title(spec));
    rep.note(format!(
        "{} nodes, {} flows, {} run(s), {} simulated each",
        compiled.topology.positions.len(),
        compiled.topology.flows.len(),
        compiled.points.len(),
        until
    ));
    let flows: Vec<u32> = compiled.topology.flows.iter().map(|f| f.id).collect();
    let from = compiled
        .topology
        .flows
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(Time::ZERO)
        .min(until);

    let nets = scale.runner().run(jobs);
    for (point, mut net) in compiled.points.iter().zip(nets) {
        rep.snapshots.push(net.snapshot(&point.label));
        let (tput, p99, jain) = summarize(&net, &flows, from, until);
        rep.row(
            format!("{}: aggregate throughput", point.label),
            "-",
            format!("{tput:.1} kb/s"),
        );
        rep.row(
            format!("{}: e2e latency p99", point.label),
            "-",
            format!("{:.3} s", p99),
        );
        rep.row(
            format!("{}: windowed Jain fairness", point.label),
            "-",
            format!("{:.2} (mean {:.2})", jain.0, jain.1),
        );
        rep.check(
            format!("{}: traffic flowed", point.label),
            net.metrics.delivered.values().sum::<u64>() > 0,
        );
    }
    Ok(rep)
}

/// Aggregate throughput (kb/s, summed over flows), p99 network latency
/// across all flows' merged histograms (seconds) and windowed Jain
/// fairness `(min, mean)` over `[from, until)`. Public so `benchmark/`
/// reports the exact numbers the spec harness would.
pub fn summarize(
    net: &ezflow_net::Network,
    flows: &[u32],
    from: Time,
    until: Time,
) -> (f64, f64, (f64, f64)) {
    let tput: f64 = flows
        .iter()
        .map(|f| net.metrics.mean_kbps(*f, from, until))
        .sum();
    let mut merged = ezflow_stats::LogHistogram::new();
    for f in flows {
        if let Some(h) = net.metrics.flow_latency.get(f) {
            merged.merge(h);
        }
    }
    let p99 = merged.quantile(0.99) as f64 / 1e6;
    let jain = fairness_windows(net, flows, from, until);
    (tput, p99, jain)
}

fn spec_title(spec: &ScenarioSpec) -> String {
    if spec.description.is_empty() {
        format!("scenario spec `{}`", spec.name)
    } else {
        spec.description.clone()
    }
}

/// Discovers `*.json` files under `dir` (sorted by file name) and reads
/// each one's name and description, tolerating unparsable files by
/// listing the error instead — `--list` must never die on one bad spec.
pub fn discover(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let line = match load(&path) {
                Ok(spec) => {
                    let points = spec
                        .compile()
                        .map(|c| c.points.len().to_string())
                        .unwrap_or_else(|_| "?".into());
                    format!("{} — {} ({} run(s))", spec.name, spec_title(&spec), points)
                }
                Err(e) => format!("UNREADABLE: {e}"),
            };
            (path, line)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4x4() -> ScenarioSpec {
        load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/grid4x4.json"
        )))
        .unwrap()
    }

    #[test]
    fn from_name_resolves_every_display_name_and_slug() {
        for algo in [Algo::Plain, Algo::EzFlow, Algo::EzFlowTestbed] {
            assert_eq!(Algo::from_name(algo.name()), Some(algo));
            assert_eq!(
                Algo::from_name(&crate::export::stem(algo.name())),
                Some(algo)
            );
        }
        assert_eq!(Algo::from_name("diffserv"), None);
    }

    #[test]
    fn spec_run_reports_throughput_latency_and_fairness() {
        let spec = grid4x4();
        let mut scale = Scale::quick();
        scale.time = 0.1; // 6 s simulated — enough for packets to land
        let rep = run_spec(&spec, &scale).unwrap();
        assert_eq!(rep.snapshots.len(), 2, "one run per controller");
        assert!(rep.all_ok(), "traffic must flow in a saturated grid");
        assert!(rep
            .rows
            .iter()
            .any(|r| r.label.contains("aggregate throughput")));
        assert!(rep.rows.iter().any(|r| r.label.contains("p99")));
        assert!(rep.rows.iter().any(|r| r.label.contains("Jain")));
    }

    #[test]
    fn unknown_controller_is_a_message_not_a_panic() {
        let mut spec = grid4x4();
        spec.sweep.controllers = vec!["tcp-reno".into()];
        let err = run_spec(&spec, &Scale::quick()).unwrap_err();
        assert!(err.contains("unknown controller 'tcp-reno'"), "{err}");
    }
}
