//! Baseline flow controllers the paper compares against (or that compare
//! against the paper).
//!
//! * Plain IEEE 802.11 is [`ezflow_net::FixedController::standard`].
//! * [`static_penalty_factory`] — the static penalty strategy of
//!   \[Aziz09\]: relays keep a small fixed window, the *source* of each
//!   flow is pinned to `relay_cw / q` (the paper quotes the stable
//!   scenario-1 operating point `q = 2^4 / 2^11 = 1/128`). Efficient but
//!   topology-dependent — the very drawback EZ-flow removes.
//! * [`DiffQController`] — an idealized rendition of DiffQ \[Warrier09\]:
//!   hop-by-hop backpressure on the backlog *differential*, delivered by
//!   explicit message passing. Our network layer grants it a free,
//!   lossless report channel (the real protocol piggybacks the backlog in
//!   a modified packet header), so this baseline is strictly *easier* on
//!   DiffQ than reality — a conservative comparison for EZ-flow.

use std::collections::HashMap;

use ezflow_net::controller::{Controller, ControllerEvent, DecisionKind, DecisionRecord, Reaction};
use ezflow_net::topo::FlowSpec;
use ezflow_net::FixedController;
use ezflow_sim::{Duration, Time};

/// Builds the per-node controller factory for the static penalty strategy
/// of \[Aziz09\]: every relay of any flow is pinned to `relay_cw`; every
/// source is pinned to `relay_cw * q_inv` (`q = 1/q_inv`); uninvolved
/// nodes keep the 802.11 default. `q_inv` must be a power of two (the
/// hardware constraint the paper works under).
pub fn static_penalty_factory(
    flows: &[FlowSpec],
    relay_cw: u32,
    q_inv: u32,
) -> impl Fn(usize) -> Box<dyn Controller> + Send + Sync {
    assert!(relay_cw.is_power_of_two());
    assert!(q_inv.is_power_of_two());
    let mut role: HashMap<usize, u32> = HashMap::new();
    for f in flows {
        let source_cw = relay_cw.saturating_mul(q_inv);
        role.insert(f.path[0], source_cw);
        for &relay in &f.path[1..f.path.len() - 1] {
            // A node that is a source of one flow and a relay of another
            // keeps the (larger) source window — the penalty targets
            // sources.
            role.entry(relay).or_insert(relay_cw);
        }
    }
    move |node: usize| -> Box<dyn Controller> {
        match role.get(&node) {
            Some(&cw) => Box::new(FixedController::pinned(cw)),
            None => Box::new(FixedController::standard()),
        }
    }
}

/// Idealized DiffQ: maps the backlog differential toward each successor to
/// one of four contention windows (the real protocol schedules packets
/// into the four 802.11e hardware queues, each with its own `CWmin`).
/// A large positive differential (we are backed up, the successor is not)
/// means "transmit aggressively"; a non-positive differential means the
/// successor is at least as loaded, so back off.
pub struct DiffQController {
    period: Duration,
    /// Latest differential per successor.
    diffs: HashMap<usize, i64>,
    /// The four priority windows, most aggressive first.
    windows: [u32; 4],
    /// Differential thresholds for windows[0..3]; below the last threshold
    /// the controller uses `windows[3]`.
    thresholds: [i64; 3],
    /// The effective window last reported to the MAC, so a class change
    /// can be recorded as an audit decision.
    last_cw: u32,
}

impl Default for DiffQController {
    fn default() -> Self {
        DiffQController {
            period: Duration::from_millis(100),
            diffs: HashMap::new(),
            // 802.11e-ish AC windows: VO/VI/BE/BK.
            windows: [16, 32, 64, 256],
            thresholds: [25, 10, 1],
            last_cw: 32,
        }
    }
}

impl DiffQController {
    /// Creates a DiffQ controller with the default class mapping and a
    /// 100 ms report period.
    pub fn new() -> Self {
        Self::default()
    }

    fn window_for(&self, diff: i64) -> u32 {
        if diff >= self.thresholds[0] {
            self.windows[0]
        } else if diff >= self.thresholds[1] {
            self.windows[1]
        } else if diff >= self.thresholds[2] {
            self.windows[2]
        } else {
            self.windows[3]
        }
    }

    /// The window implied by the most congested successor.
    fn effective_cw(&self) -> Option<u32> {
        self.diffs.values().map(|&d| self.window_for(d)).max()
    }
}

impl Controller for DiffQController {
    fn on_event(&mut self, _now: Time, event: ControllerEvent<'_>) -> Reaction {
        // DiffQ does not use passive overhearing.
        let ControllerEvent::NeighborBacklog {
            neighbor,
            backlog,
            own_backlog,
        } = event
        else {
            return Reaction::default();
        };
        let diff = own_backlog as i64 - backlog as i64;
        self.diffs.insert(neighbor, diff);
        let cw = self.effective_cw();
        // A class change is DiffQ's "decision": the backlog differential
        // is the driving quantity.
        let decision = cw.filter(|&cw| cw != self.last_cw).map(|cw| {
            let before = std::mem::replace(&mut self.last_cw, cw);
            DecisionRecord {
                kind: DecisionKind::Assign,
                successor: Some(neighbor),
                avg: diff as f64,
                countup: 0,
                countdown: 0,
                up_threshold: 0,
                down_threshold: 0,
                cw_before: before,
                cw_after: cw,
            }
        });
        Reaction {
            cw,
            boe: None,
            decision,
        }
    }

    fn backlog_period(&self) -> Option<Duration> {
        Some(self.period)
    }

    fn name(&self) -> &'static str {
        "diffq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(path: Vec<usize>) -> FlowSpec {
        FlowSpec::saturating(0, path, Time::ZERO, Time::from_secs(1))
    }

    #[test]
    fn static_penalty_assigns_roles() {
        let flows = vec![flow(vec![0, 1, 2, 3, 4])];
        let make = static_penalty_factory(&flows, 16, 128);
        assert_eq!(make(0).initial_cw_min(), Some(2048), "source: 16 * 128");
        assert_eq!(make(1).initial_cw_min(), Some(16));
        assert_eq!(make(3).initial_cw_min(), Some(16));
        assert_eq!(make(4).initial_cw_min(), None, "destination untouched");
        assert_eq!(make(9).initial_cw_min(), None, "bystander untouched");
    }

    #[test]
    fn static_penalty_source_role_wins() {
        // Node 2 relays flow a but sources flow b.
        let mut a = flow(vec![0, 1, 2, 3]);
        a.id = 0;
        let mut b = flow(vec![2, 3, 4]);
        b.id = 1;
        let make = static_penalty_factory(&[b, a], 16, 64);
        assert_eq!(make(2).initial_cw_min(), Some(1024));
    }

    #[test]
    fn diffq_maps_differential_to_classes() {
        let mut c = DiffQController::new();
        let ev = |own, succ| ControllerEvent::NeighborBacklog {
            neighbor: 5,
            backlog: succ,
            own_backlog: own,
        };
        assert_eq!(c.on_event(Time::ZERO, ev(50, 0)).cw, Some(16));
        assert_eq!(c.on_event(Time::ZERO, ev(15, 0)).cw, Some(32));
        assert_eq!(c.on_event(Time::ZERO, ev(5, 0)).cw, Some(64));
        assert_eq!(c.on_event(Time::ZERO, ev(5, 20)).cw, Some(256));
        assert!(c.backlog_period().is_some(), "diffq needs message passing");
    }

    #[test]
    fn diffq_records_class_changes_as_assign_decisions() {
        let mut c = DiffQController::new();
        let ev = |own, succ| ControllerEvent::NeighborBacklog {
            neighbor: 5,
            backlog: succ,
            own_backlog: own,
        };
        let r = c.on_event(Time::ZERO, ev(50, 0));
        assert_eq!(r.cw, Some(16));
        assert_eq!(r.boe, None, "no passive estimator");
        let d = r.decision.expect("class change recorded");
        assert_eq!(d.kind, DecisionKind::Assign);
        assert_eq!(d.successor, Some(5));
        assert_eq!((d.cw_before, d.cw_after), (32, 16));
        assert_eq!(d.avg, 50.0, "the backlog differential");
        // Same class again: the window is restated, no new decision.
        let r = c.on_event(Time::ZERO, ev(60, 0));
        assert_eq!((r.cw, r.decision), (Some(16), None));
        let r = c.on_event(Time::ZERO, ev(5, 20));
        let d = r.decision.expect("the next class change");
        assert_eq!((d.cw_before, d.cw_after), (16, 256));
    }

    #[test]
    fn diffq_multi_successor_uses_most_congested() {
        let mut c = DiffQController::new();
        c.on_event(
            Time::ZERO,
            ControllerEvent::NeighborBacklog {
                neighbor: 1,
                backlog: 0,
                own_backlog: 50,
            },
        );
        // Successor 2 is congested: its class (256) dominates.
        assert_eq!(
            c.on_event(
                Time::ZERO,
                ControllerEvent::NeighborBacklog {
                    neighbor: 2,
                    backlog: 50,
                    own_backlog: 50,
                },
            )
            .cw,
            Some(256)
        );
    }
}
