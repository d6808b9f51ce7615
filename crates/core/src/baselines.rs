//! Baseline flow controllers the paper compares against.
//!
//! * Plain IEEE 802.11 is [`ezflow_net::FixedController::standard`].
//! * [`static_penalty_factory`] — the static penalty strategy of
//!   \[Aziz09\]: relays keep a small fixed window, the *source* of each
//!   flow is pinned to `relay_cw / q` (the paper quotes the stable
//!   scenario-1 operating point `q = 2^4 / 2^11 = 1/128`). Efficient but
//!   topology-dependent — the very drawback EZ-flow removes.

use std::collections::HashMap;

use ezflow_net::controller::Controller;
use ezflow_net::topo::FlowSpec;
use ezflow_net::FixedController;

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

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_sim::Time;

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
}
