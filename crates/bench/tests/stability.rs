//! The PR's acceptance check as a test: on a quick scenario-1 slice the
//! plain-802.11 baseline shows *sustained* queue oscillation (at least
//! one detected episode) and a strictly higher mean oscillation
//! amplitude than EZ-flow — the turbulence the paper sets out to remove,
//! now measured by the telemetry bus instead of eyeballed from figures.
//! Beside it, the pin that the snapshot's stability section and
//! `trace telemetry` run one analysis: the same tracker over the same
//! streamed windows.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};

use ezflow_bench::experiments::Algo;
use ezflow_net::network::{Network, NetworkSpec};
use ezflow_net::snapshot::{NodeStabilitySnapshot, StabilitySnapshot};
use ezflow_net::topo;
use ezflow_sim::{JsonValue, Time};
use ezflow_stats::{jain_index, Stability, StabilityConfig, StabilityTracker};

/// Horizon of both runs: F1 starts at 5 s; F2 at 605 s stays out.
const SECS: u64 = 305;

/// A telemetry sink the test keeps a handle on.
#[derive(Clone, Default)]
struct Stream(Arc<Mutex<Vec<u8>>>);

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One run's snapshot stability section and its streamed window records.
struct Run {
    stability: StabilitySnapshot,
    records: Vec<JsonValue>,
}

/// Scenario 1 under `algo` with the telemetry bus armed at the default
/// 100 ms interval and streaming, run to [`SECS`]; each controller's run
/// is made once per test process.
fn run(algo: Algo) -> &'static Run {
    static PLAIN: OnceLock<Run> = OnceLock::new();
    static EZ: OnceLock<Run> = OnceLock::new();
    let cell = match algo {
        Algo::Plain => &PLAIN,
        Algo::EzFlow => &EZ,
        Algo::EzFlowTestbed => unreachable!("not run here"),
    };
    cell.get_or_init(|| {
        let t = topo::scenario1();
        let mut spec = NetworkSpec::from_topology(&t, 42);
        spec.telemetry_every = Some(NetworkSpec::TELEMETRY_EVERY);
        let mut net = Network::new(spec, &*algo.factory());
        let stream = Stream::default();
        net.telemetry.set_sink(Box::new(stream.clone()));
        net.run_until(Time::from_secs(SECS));
        let stability = (net.snapshot(algo.name()).stability).expect("telemetry armed");
        let bytes = stream.0.lock().unwrap();
        let records = (std::str::from_utf8(&bytes).expect("UTF-8 records").lines())
            .map(|l| JsonValue::parse(l).expect("each record parses"))
            .collect();
        Run { stability, records }
    })
}

/// `field` of each object in record `rec`'s `list` array, as a number.
fn column(rec: &JsonValue, list: &str, field: &str) -> Vec<f64> {
    let items = rec.get(list).and_then(JsonValue::as_array).unwrap();
    items
        .iter()
        .map(|item| item.get(field).and_then(JsonValue::as_f64).unwrap())
        .collect()
}

/// Each node's tracker verdict over `records`' queue depths, in node
/// order — what `trace telemetry` computes from the same stream.
fn scored(records: &[JsonValue]) -> Vec<Stability> {
    let nodes = column(&records[0], "nodes", "queue").len();
    let interval = NetworkSpec::TELEMETRY_EVERY;
    let mut trackers = vec![StabilityTracker::new(interval, StabilityConfig::default()); nodes];
    for rec in records {
        for (tracker, q) in trackers.iter_mut().zip(column(rec, "nodes", "queue")) {
            tracker.push(q);
        }
    }
    trackers.iter().map(StabilityTracker::summary).collect()
}

#[test]
fn snapshot_stability_is_the_tracker_over_the_stream() {
    for algo in [Algo::Plain, Algo::EzFlow] {
        let run = run(algo);
        assert_eq!(run.records.len() as u64, run.stability.windows);
        let streamed: Vec<NodeStabilitySnapshot> = (scored(&run.records).iter().enumerate())
            .map(|(node, st)| NodeStabilitySnapshot {
                node,
                amplitude_mean: st.amplitude.mean,
                amplitude_max: st.amplitude.max,
                cv_mean: st.cv.mean,
                episodes: st.episodes.iter().map(Into::into).collect(),
            })
            .collect();
        // Debug text tells -0.0 from 0.0, so this is bit equality.
        assert_eq!(
            format!("{:?}", run.stability.nodes),
            format!("{streamed:?}"),
            "{}",
            algo.name()
        );
    }
}

/// The regime summary over the last `windows` windows of `run`: worst
/// node's mean amplitude, episodes across nodes with their bounds in
/// run time (µs), and the smallest windowed Jain index over the flows.
struct Slice {
    worst_amplitude_mean: f64,
    episodes: Vec<(u64, u64, f64)>,
    fairness_min_window: f64,
}

fn trailing(run: &Run, windows: usize) -> Slice {
    let records = &run.records[run.records.len() - windows..];
    let interval_us = NetworkSpec::TELEMETRY_EVERY.as_micros();
    // The tracker clocks its chunks from the slice's first window.
    let first_us = records[0].get("at_us").and_then(JsonValue::as_u64).unwrap() - interval_us;
    let nodes = scored(records);
    Slice {
        worst_amplitude_mean: nodes.iter().map(|n| n.amplitude.mean).fold(0.0, f64::max),
        episodes: (nodes.iter().flat_map(|n| &n.episodes))
            .map(|e| {
                let (start, end) = (e.start.as_micros(), e.end.as_micros());
                (first_us + start, first_us + end, e.peak_amplitude)
            })
            .collect(),
        fairness_min_window: (records.iter())
            .map(|rec| jain_index(&column(rec, "flows", "kbps")))
            .fold(1.0, f64::min),
    }
}

#[test]
fn baseline_oscillates_where_ezflow_is_calm() {
    // The last 2048 windows of the 305 s runs, roughly the last 205 s:
    // the start-up transient is left out and only the steady state is
    // scored.
    let plain = trailing(run(Algo::Plain), 2048);
    let ez = trailing(run(Algo::EzFlow), 2048);

    // The baseline's relay queues keep swinging by several packets every
    // couple of seconds — sustained turbulence, not isolated blips.
    assert!(
        !plain.episodes.is_empty(),
        "802.11 must show at least one sustained oscillation episode"
    );
    assert!(
        plain.worst_amplitude_mean > ez.worst_amplitude_mean,
        "802.11 amplitude ({}) must exceed EZ-flow's ({})",
        plain.worst_amplitude_mean,
        ez.worst_amplitude_mean
    );
    // EZ-flow's steady state is the calmer regime on both counts.
    assert!(
        ez.episodes.len() < plain.episodes.len(),
        "EZ-flow episodes ({}) must undercut 802.11's ({})",
        ez.episodes.len(),
        plain.episodes.len()
    );

    // Episode timestamps are well-formed and inside the scored slice.
    for &(start_us, end_us, peak_amplitude) in &plain.episodes {
        assert!(start_us < end_us);
        assert!(end_us <= SECS * 1_000_000);
        assert!(peak_amplitude >= 3.0, "below the detector threshold");
    }
    // Only F1 is active in this slice, so windowed Jain over (F1, F2)
    // pins to 1/2 — the fairness floor shows the idle flow.
    assert!((plain.fairness_min_window - 0.5).abs() < 1e-9);
}
