//! The metric tables: every name this benchmark prints, with its unit
//! and direction. `BENCHMARK.json` mirrors them (pinned by
//! `tests/contract.rs`); later performance claims are made in these
//! names.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off.
///
/// The three simulated metrics repeat exactly for one seed (the output
/// checks enforce it); their bounds leave room only for the spread
/// *between* seeds, which the acceptance procedure also sees.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("spec_to_report_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_ns_per_frame", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("report_bytes", "B", Lower, 0.10),
    e2e("goodput_kbps", "kb/s", Higher, 0.15),
    e2e("delay_mean_ms", "ms", Lower, 0.25),
    e2e("jain_mean_window", "ratio", Higher, 0.15),
];

/// One layer each (layer = `crate.module`), from the traced pass.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("net.scenario.parse_s", "s", Lower),
    layer("net.scenario.compile_s", "s", Lower),
    layer("net.builder.build_s", "s", Lower),
    layer("net.builder.bytes_per_node", "B", Lower),
    layer("net.builder.rss_mb_after_build", "MB", Lower),
    layer("net.engine.run_s", "s", Lower),
    layer("net.snapshot.snapshot_s", "s", Lower),
    layer("sim.json.serialise_s", "s", Lower),
    layer("bench.report.write_s", "s", Lower),
    layer("sim.json.parse_mb_per_s", "MB/s", Higher),
    layer("sim.sched.loop_ns_per_event", "ns", Lower),
    layer("sim.sched.hold_ns_per_op", "ns", Lower),
    layer("sim.sched.events_per_frame", "ratio", Lower),
    layer("sim.sched.reschedules_per_frame", "ratio", Lower),
    layer("sim.sched.rotations_per_event", "ratio", Lower),
    layer("sim.sched.stale_fraction", "ratio", Lower),
    layer("sim.sched.depth_high_water", "count", Lower),
    layer("mac.dcf.timer_ns_per_frame", "ns", Lower),
    layer("mac.dcf.retry_ratio", "ratio", Lower),
    layer("mac.dcf.useful_ratio", "ratio", Higher),
    layer("phy.medium.txend_ns_per_frame", "ns", Lower),
    layer("phy.medium.tx_ns", "ns", Lower),
    layer("phy.medium.sense_degree_mean", "count", Lower),
    layer("phy.medium.collision_ratio", "ratio", Lower),
    layer("phy.loss.loss_ratio", "ratio", Lower),
    layer("phy.arena.high_water", "count", Lower),
    layer("phy.arena.reuse_ratio", "ratio", Higher),
    layer("net.transport.ns_per_frame", "ns", Lower),
    layer("net.metrics.sample_ns_per_frame", "ns", Lower),
    layer("net.metrics.delay_p95_ms", "ms", Lower),
    layer("net.queue.drop_ratio", "ratio", Lower),
    layer("net.telemetry.ns_per_window", "ns", Lower),
    layer("net.telemetry.windows", "count", Higher),
    layer("net.flight.kept_ratio", "ratio", Higher),
    layer("net.audit.records", "count", Higher),
    layer("stats.hist.record_ns", "ns", Lower),
    layer("core.boe.hit_ratio", "ratio", Higher),
    layer("core.caa.moves", "count", Lower),
    layer("bench.runner.speedup_jobs2", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The definition of `name` in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Measured values, by name, in table order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` for `name`, which must be in a table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "{name} is not a defined metric");
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The first table entry with no finite value recorded, if any.
    pub fn first_missing(&self, table: &[MetricDef]) -> Option<&'static str> {
        table
            .iter()
            .find(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
    }
}

/// `a / b`, or zero when there was nothing to divide by (an observer
/// that is off, a controller that never moved).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} defined twice", m.name);
            assert!(
                m.name.len() <= 64
                    && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {}",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} for {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn only_end_to_end_metrics_carry_bounds() {
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }
}
