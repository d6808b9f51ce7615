//! Isolated micro-timings: one layer's primitive driven alone, at the
//! size the workload drives it, so a per-layer number exists that the
//! rest of the event loop cannot blur. Each is the best of a few
//! batches (the work is fixed; the host can only add time).

use std::hint::black_box;
use std::time::Instant;

use ezflow_net::NetworkSpec;
use ezflow_phy::{Channel, EndReport, FrameId, StartReport};
use ezflow_sim::{Duration, JsonValue, Scheduler, SimRng, Time};
use ezflow_stats::LogHistogram;

const BATCHES: usize = 3;

fn best_ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `Scheduler::pop` + `Scheduler::schedule` under the classic hold
/// model: the queue is kept at `depth` pending entries and each popped
/// entry is re-armed a random interval ahead. Nanoseconds per pair.
pub fn sched_hold_ns(depth: usize) -> f64 {
    const OPS: u64 = 200_000;
    const MEAN_GAP_US: u32 = 1_000;
    let mut rng = SimRng::new(0x686f_6c64);
    let mut sched: Scheduler<u32> = Scheduler::new();
    for i in 0..depth.max(1) {
        let at = Time::from_micros(rng.gen_range(2 * MEAN_GAP_US) as u64);
        sched.schedule(at, i as u32);
    }
    best_ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (at, ev) = sched.pop().expect("hold model keeps the queue non-empty");
            let gap = Duration::from_micros(1 + rng.gen_range(2 * MEAN_GAP_US) as u64);
            sched.schedule(at + gap, black_box(ev));
        }
    })
}

/// `Channel::start_tx_into` + `Channel::end_tx_into` on the workload's
/// own compiled channel, one transmission on the air at a time, cycling
/// over every flow's first hop. Returns nanoseconds per pair and the
/// channel's mean carrier-sense degree.
pub fn channel_tx_ns(ns: &NetworkSpec) -> (f64, f64) {
    const OPS: u64 = 20_000;
    let mut channel = Channel::new(&ns.positions, ns.channel, ns.loss.clone());
    let n = channel.node_count();
    let degree = (0..n)
        .map(|s| channel.sensing_neighbors(s).len())
        .sum::<usize>() as f64
        / n.max(1) as f64;
    let hops: Vec<(usize, usize)> = ns.flows.iter().map(|f| (f.path[0], f.path[1])).collect();
    let mut rng = SimRng::new(ns.seed);
    let (mut start, mut end) = (StartReport::default(), EndReport::default());
    let airtime = Duration::from_micros(4_500);
    let mut now = Time::ZERO;
    let per_pair = best_ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let (src, dst) = hops[i % hops.len()];
            let done = now + airtime;
            channel.start_tx_into(now, FrameId::default(), src, dst, done, &mut start);
            channel.end_tx_into(done, start.tx_id, &mut rng, &mut end);
            black_box(end.deliveries.len());
            now = done + Duration::from_micros(50);
        }
    });
    (per_pair, degree)
}

/// `LogHistogram::record`, nanoseconds per call, over latencies spread
/// across the microsecond-to-second range a run records.
pub fn hist_record_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut rng = SimRng::new(0x6869_7374);
    let mut hist = LogHistogram::new();
    let per_op = best_ns_per_op(OPS, || {
        for _ in 0..OPS {
            let v = rng.next_u32() >> (rng.next_u32() % 22);
            hist.record(black_box(v as u64));
        }
    });
    black_box(hist.total());
    per_op
}

/// `JsonValue::parse` over a written report, MB/s (decimal). Also the
/// check that what was written is a JSON document.
pub fn json_parse_mb_per_s(text: &str) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let doc = JsonValue::parse(text).map_err(|e| format!("written report: {}", e.message))?;
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&doc);
    }
    Ok(text.len() as f64 / 1e6 / best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_timings_are_positive_and_finite() {
        for v in [sched_hold_ns(64), hist_record_ns()] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
        assert!(json_parse_mb_per_s(r#"{"a": [1, 2, 3]}"#).unwrap() > 0.0);
        assert!(json_parse_mb_per_s("{").is_err());
    }

    #[test]
    fn channel_timing_uses_the_workload_topology() {
        let topo = ezflow_net::topo::chain(4, Time::ZERO, Time::from_secs(1));
        let (ns_per_pair, degree) = channel_tx_ns(&NetworkSpec::from_topology(&topo, 1));
        assert!(ns_per_pair > 0.0);
        // A 5-node line with a 3-hop sense range: ends sense 3 others,
        // the middle node all 4.
        assert!((3.0..=4.0).contains(&degree), "{degree}");
    }
}
