//! Integration tests for the telemetry bus: the zero-interference
//! guarantee (telemetry on/off produce byte-identical snapshots, across
//! random sample intervals), the samplers' tie rule, ring/window
//! accounting, JSONL streaming, and the engine self-profiler staying
//! perf-only.

use std::sync::OnceLock;

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

fn run_scenario1(telemetry_every: Option<Duration>, cap: usize) -> Network {
    let t = topo::scenario1();
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.telemetry_every = telemetry_every;
    spec.telemetry_cap = cap;
    let mut net = Network::new(spec, &std_controller);
    net.run_until(Time::from_secs(RUN_SECS));
    net
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
    OFF.get_or_init(|| comparable_text(&mut run_scenario1(None, 1 << 16)))
}

#[test]
fn telemetry_on_and_off_produce_identical_simulations() {
    // The tentpole's zero-interference guarantee at the default interval
    // and a spread of others (sub-default, odd, coarse).
    for &ms in &[100u64, 37, 250, 1000] {
        let mut net = run_scenario1(Some(Duration::from_millis(ms)), 1 << 16);
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
        let mut net = run_scenario1(Some(Duration::from_micros(us)), 1 << 16);
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
            let depth = net.telemetry.queue_depth(1);
            let window = 10 * k - 1;
            assert_eq!(depth.window_end(window), at);
            assert_eq!(
                depth.get(window),
                Some(&before),
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
    let mut plain = run_scenario1(Some(Duration::from_millis(100)), 1 << 16);
    let psnap = plain.snapshot("profile-off");
    assert!(psnap.perf.handler_ns.iter().all(|&ns| ns == 0));
}

#[test]
fn rings_window_the_run_and_telescope_throughput() {
    let net = run_scenario1(Some(Duration::from_millis(100)), 1 << 16);
    let w = net.telemetry.windows();
    assert!(
        (115..=121).contains(&w),
        "expected ~120 windows over {RUN_SECS} s, got {w}"
    );
    for node in 0..net.node_count() {
        assert_eq!(net.telemetry.queue_depth(node).len() as u64, w);
    }
    // F1's source (N12) saturates its 50-packet queue; the ring sees it.
    assert!(net.telemetry.queue_depth(12).iter().any(|(_, &d)| d > 0.0));

    // The per-window throughput deltas telescope back to the cumulative
    // total — no window is lost or double-counted.
    let (id, kbps) = net.telemetry.flow_kbps().next().unwrap();
    assert_eq!(id, 0);
    let summed_bits: f64 = kbps.iter().map(|(_, &k)| k * 1000.0 * 0.1).sum();
    let total_bits = net.metrics.throughput[&0].total_bits();
    assert!(total_bits > 0.0, "F1 must deliver in {RUN_SECS} s");
    assert!(
        (summed_bits - total_bits).abs() <= 1e-6 * total_bits,
        "windowed kbps must telescope: {summed_bits} vs {total_bits}"
    );
}

#[test]
fn rings_evict_oldest_windows_at_cap() {
    let mut net = run_scenario1(Some(Duration::from_millis(100)), 32);
    let w = net.telemetry.windows();
    assert!(w > 32, "run long enough to overflow the cap");
    let ring = net.telemetry.queue_depth(0);
    assert_eq!(ring.len(), 32);
    assert_eq!(ring.dropped(), w - 32);
    assert_eq!(ring.first_index(), w - 32);
    assert_eq!(ring.next_index(), w);
    // A capped run is still interference-free.
    assert_eq!(comparable_text(&mut net), off_text());
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
