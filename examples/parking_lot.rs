//! The parking-lot scenario of the paper's testbed (§4.3, Table 2).
//!
//! A 7-hop flow F1 shares the tail of its path with a 4-hop flow F2 whose
//! source sits near the middle of the chain. Under plain 802.11 the short
//! flow's greedy source completely starves the long flow (the paper
//! measured 7 kb/s vs 143 kb/s, Jain index 0.55); EZ-flow throttles both
//! sources just enough to share (71 vs 110, index 0.96).
//!
//! ```text
//! cargo run --release --example parking_lot
//! ```

use ezflow::prelude::*;

fn main() {
    let secs = 900;
    let until = Time::from_secs(secs);
    let warm = Time::from_secs(secs / 10);
    // The calibrated 9-node campus testbed with both flows on.
    let topo = testbed(true, true, Time::ZERO, until);

    println!("parking lot on the calibrated testbed ({secs} s)\n");
    for (name, ez) in [("IEEE 802.11", false), ("EZ-flow", true)] {
        let make: Box<dyn Fn(usize) -> Box<dyn Controller>> = if ez {
            // The testbed configuration carries the MadWifi CWmin <= 2^10
            // clamp the paper had to live with.
            Box::new(|_| Box::new(EzFlowController::new(EzFlowConfig::testbed())))
        } else {
            Box::new(|_| Box::new(FixedController::standard()))
        };
        let mut net = Network::from_topology(&topo, 21, &*make);
        net.run_until(until);

        let k1 = net.metrics.mean_kbps(0, warm, until);
        let k2 = net.metrics.mean_kbps(1, warm, until);
        let fi = jain_index(&[k1, k2]);
        println!("== {name} ==");
        println!("  F1 (7 hops): {k1:6.1} kb/s");
        println!("  F2 (4 hops): {k2:6.1} kb/s");
        println!("  Jain fairness index: {fi:.2}");
        println!(
            "  aggregate: {:.1} kb/s, source windows: cw0 = {}, cw0' = {}\n",
            k1 + k2,
            net.cw_min(0),
            net.cw_min(ezflow::net::topo::TESTBED_F2_SRC),
        );
    }
}
