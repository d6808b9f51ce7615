//! Integration tests for the telemetry bus: the zero-interference
//! guarantee (telemetry on/off produce byte-identical snapshots, across
//! random sample intervals), the samplers' tie rule, window accounting,
//! JSONL streaming, and the engine self-profiler staying perf-only.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};

use ezflow_net::controller::{Controller, FixedController};
use ezflow_net::engine::PROFILE_KINDS;
use ezflow_net::network::{Network, NetworkSpec};
use ezflow_net::snapshot::PerfSnapshot;
use ezflow_net::topo::{self, FlowSpec};
use ezflow_sim::{Duration, JsonValue, Time};
use proptest::prelude::*;

fn std_controller(_id: usize) -> Box<dyn Controller> {
    Box::new(FixedController::standard())
}

/// Every zero-interference comparison runs scenario 1 to the same
/// horizon (F1 starts at 5 s, so this covers ramp-up and saturation).
const RUN_SECS: u64 = 12;

fn run_scenario1(telemetry_every: Option<Duration>) -> Network {
    run_scenario1_into(telemetry_every, None)
}

/// [`run_scenario1`] with the telemetry stream attached to `sink`.
fn run_scenario1_into(telemetry_every: Option<Duration>, sink: Option<Stream>) -> Network {
    let t = topo::scenario1();
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.telemetry_every = telemetry_every;
    let mut net = Network::new(spec, &std_controller);
    if let Some(sink) = sink {
        net.telemetry.set_sink(Box::new(sink));
    }
    net.run_until(Time::from_secs(RUN_SECS));
    net
}

/// A telemetry sink the test keeps a handle on: the records written so
/// far, readable while the run is paused.
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

impl Stream {
    /// The window records streamed so far, parsed, in window order.
    fn records(&self) -> Vec<JsonValue> {
        let bytes = self.0.lock().unwrap();
        let text = std::str::from_utf8(&bytes).expect("UTF-8 records");
        text.lines()
            .map(|l| JsonValue::parse(l).expect("each record parses"))
            .collect()
    }
}

/// `field` of each object in record `rec`'s `list` array, as a number.
fn column(rec: &JsonValue, list: &str, field: &str) -> Vec<f64> {
    let items = rec.get(list).and_then(JsonValue::as_array).unwrap();
    items
        .iter()
        .map(|item| item.get(field).and_then(JsonValue::as_f64).unwrap())
        .collect()
}

/// Snapshot text with the perf section zeroed and the stability section
/// stripped — exactly the parts telemetry is *allowed* to populate.
/// Everything else must be byte-identical with telemetry on or off.
fn comparable_text(net: &mut Network) -> String {
    let mut snap = net.snapshot("interference");
    snap.perf = PerfSnapshot::zeroed();
    snap.stability = None;
    snap.to_json().to_pretty()
}

/// The telemetry-off baseline, computed once per test process.
fn off_text() -> &'static str {
    static OFF: OnceLock<String> = OnceLock::new();
    OFF.get_or_init(|| comparable_text(&mut run_scenario1(None)))
}

#[test]
fn telemetry_on_and_off_produce_identical_simulations() {
    // The tentpole's zero-interference guarantee at the default interval
    // and a spread of others (sub-default, odd, coarse).
    for &ms in &[100u64, 37, 250, 1000] {
        let mut net = run_scenario1(Some(Duration::from_millis(ms)));
        let mut snap = net.snapshot("interference");
        assert!(
            snap.stability.is_some(),
            "telemetry on must surface a stability section"
        );
        assert_eq!(
            snap.stability.as_ref().unwrap().windows,
            net.telemetry.windows()
        );
        snap.perf = PerfSnapshot::zeroed();
        snap.stability = None;
        assert_eq!(
            snap.to_json().to_pretty(),
            off_text(),
            "telemetry at {ms} ms perturbed the simulation"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Satellite: the on/off byte-identity holds for *random* sample
    /// intervals, not just round ones — the sampler event must never
    /// collide with simulation scheduling no matter where it lands.
    #[test]
    fn zero_interference_holds_for_random_sample_intervals(us in 7_001u64..3_000_000) {
        let mut net = run_scenario1(Some(Duration::from_micros(us)));
        prop_assert_eq!(comparable_text(&mut net), off_text());
    }
}

/// The samplers' tie rule: a sample at T reads the state that the
/// events before T left, before any event at T. Flow 1→2's first tick
/// falls at exactly 3 s, an instant both samplers share with it; every
/// whole-second sample of node 1 must read its occupancy 1 µs earlier.
#[test]
fn a_sample_at_t_reads_the_state_before_the_events_at_t() {
    let until = Time::from_secs(6);
    for seed in 1..=5 {
        let mut t = topo::chain(2, Time::ZERO, until);
        let second = FlowSpec::saturating(1, vec![1, 2], Time::from_secs(3), until);
        t.flows.push(second);
        let mut spec = NetworkSpec::from_topology(&t, seed);
        spec.telemetry_every = Some(Duration::from_millis(100));
        let mut net = Network::new(spec, &std_controller);
        let stream = Stream::default();
        net.telemetry.set_sink(Box::new(stream.clone()));
        for k in 1..=6u64 {
            let at = Time::from_secs(k);
            net.run_until(at - Duration::from_micros(1));
            let before = net.occupancy(1) as f64;
            net.run_until(at);
            assert_eq!(
                net.metrics.buffer[1].points()[k as usize - 1],
                (k as f64, before),
                "seed {seed}: metrics sample at {k} s"
            );
            let records = stream.records();
            let rec = &records[10 * k as usize - 1];
            let at_us = rec.get("at_us").and_then(JsonValue::as_u64);
            assert_eq!(at_us, Some(at.as_micros()));
            assert_eq!(
                column(rec, "nodes", "queue")[1],
                before,
                "seed {seed}: telemetry window at {k} s"
            );
        }
    }
}

#[test]
fn profiler_is_perf_only_and_times_every_kind() {
    // Profile + telemetry on: handler wall-times populate (including the
    // telemetry sampler's slot, the last) yet the comparable snapshot
    // still matches the plain off-run byte for byte.
    let t = topo::scenario1();
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.telemetry_every = Some(Duration::from_millis(100));
    spec.profile = true;
    let mut net = Network::new(spec, &std_controller);
    net.run_until(Time::from_secs(RUN_SECS));

    let snap = net.snapshot("profile");
    assert!(
        snap.perf.handler_ns[..PROFILE_KINDS - 1]
            .iter()
            .sum::<u64>()
            > 0
    );
    assert!(
        snap.perf.handler_ns[PROFILE_KINDS - 1] > 0,
        "the telemetry sampler must be timed in its own slot"
    );
    assert_eq!(snap.perf.telemetry_windows, net.telemetry.windows());
    assert!(snap.perf.telemetry_windows_per_sec > 0.0);
    assert_eq!(comparable_text(&mut net), off_text());

    // Profiler off: the slots stay zero (the golden gate depends on it).
    let mut plain = run_scenario1(Some(Duration::from_millis(100)));
    let psnap = plain.snapshot("profile-off");
    assert!(psnap.perf.handler_ns.iter().all(|&ns| ns == 0));
}

#[test]
fn rings_window_the_run_and_telescope_throughput() {
    let stream = Stream::default();
    let net = run_scenario1_into(Some(Duration::from_millis(100)), Some(stream.clone()));
    let w = net.telemetry.windows();
    assert!(
        (115..=121).contains(&w),
        "expected ~120 windows over {RUN_SECS} s, got {w}"
    );
    let records = stream.records();
    assert_eq!(records.len() as u64, w);
    for rec in &records {
        assert_eq!(column(rec, "nodes", "queue").len(), net.node_count());
    }
    // F1's source (N12) saturates its 50-packet queue; the stream sees it.
    assert!(records
        .iter()
        .any(|rec| column(rec, "nodes", "queue")[12] > 0.0));

    // The per-window throughput deltas telescope back to the cumulative
    // total — no window is lost or double-counted.
    assert_eq!(column(&records[0], "flows", "flow")[0], 0.0);
    let summed_bits: f64 = (records.iter())
        .map(|rec| column(rec, "flows", "kbps")[0] * 1000.0 * 0.1)
        .sum();
    let total_bits = net.metrics.throughput[&0].total_bits();
    assert!(total_bits > 0.0, "F1 must deliver in {RUN_SECS} s");
    assert!(
        (summed_bits - total_bits).abs() <= 1e-6 * total_bits,
        "windowed kbps must telescope: {summed_bits} vs {total_bits}"
    );
}

#[test]
fn jsonl_sink_streams_one_record_per_window() {
    let t = topo::scenario1();
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.telemetry_every = Some(Duration::from_millis(500));
    let mut net = Network::new(spec, &std_controller);
    let path = std::env::temp_dir().join(format!(
        "ezflow_telemetry_sink_{}.jsonl",
        std::process::id()
    ));
    net.telemetry
        .set_sink(Box::new(std::fs::File::create(&path).expect("temp file")));
    net.run_until(Time::from_secs(10));
    let text = std::fs::read_to_string(&path).expect("sink written");
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, net.telemetry.windows());
    for (i, line) in lines.iter().enumerate() {
        let rec = JsonValue::parse(line).expect("each record parses");
        assert_eq!(
            rec.get("window").and_then(JsonValue::as_u64),
            Some(i as u64)
        );
        assert_eq!(
            rec.get("interval_us").and_then(JsonValue::as_u64),
            Some(500_000)
        );
        let at = rec.get("at_us").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(at, (i as u64 + 1) * 500_000, "windows land on the grid");
        let nodes = rec.get("nodes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(nodes.len(), net.node_count());
        for nd in nodes {
            let q = nd.get("queue").and_then(JsonValue::as_f64).unwrap();
            assert!(q >= 0.0);
            let af = nd.get("active_frac").and_then(JsonValue::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&af));
        }
        let flows = rec.get("flows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(flows.len(), 2, "scenario 1 declares F1 and F2");
    }
}
